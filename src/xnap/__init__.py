"""Next-activity prediction on business-process event logs with
per-event relevance explanations."""

__version__ = "0.1.0"

from .bilstm import (
    BiLstmModel,
    TrainConfig,
    backward,
    forward,
    init_model,
    load_model,
    predict,
    predict_many,
    save_model,
    train,
)
from .encoding import (
    END_SYMBOL,
    ActivityVocabulary,
    PrefixDataset,
    PrefixSample,
    assemble_dataset,
    augment_with_end,
    build_vocabulary,
    encode_running_trace,
    max_augmented_length,
    occlude_event,
)
from .eventlog import (
    Event,
    EventLog,
    LogFormat,
    LogStats,
    Trace,
    compute_stats,
    filter_log,
    parse_log,
    serialize_log,
)
from .evaluation import (
    FoldPlan,
    MetricsReport,
    MetricsRow,
    make_folds,
    run_cv,
    weighted_metrics,
)
from .lrp import (
    LrpConfig,
    RelevanceTrace,
    explain,
    explain_many,
    lrp_linear,
    lrp_multiplicative,
    rescale_for_display,
)
from .synthlog import GrammarSpec, copy_task, generate, linear_grammar, oracle_relevant_position

__all__ = [name for name in dir() if not name.startswith("_")]
