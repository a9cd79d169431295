import inspect
import pickle

import pytest

from xnap import errors

ERROR_TYPES = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.XnapError)]
# A value per constructor parameter type; quotes and markup keep repr() honest.
ARGUMENTS = {int: 7, str: "a 'b' <c>"}


def _instance(cls):
    if not inspect.isfunction(cls.__init__):  # Exception's own constructor
        return cls("a message")
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return cls(*(ARGUMENTS[p.annotation] for p in params))


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def test_every_error_type_is_covered():
    # the seven with a constructor of their own were the ones that broke
    custom = {cls.__name__ for cls in ERROR_TYPES if "__init__" in vars(cls)}
    assert custom == {"MissingColumn", "BadTimestamp", "BadRow", "NotUtf8", "UnknownCase",
                      "UnknownActivity", "NonFiniteLoss"}
