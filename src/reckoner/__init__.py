"""Reckoner: confidence-split dual-model fair classification for tabular
data, with group-fairness auditing and confidence-stratified bias analysis.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    CodedTable,
    ColumnSpec,
    Dataset,
    Schema,
    SplitSpec,
    SynthConfig,
    code_csv,
    hash_features,
    load_csv,
    split_dataset,
    standardize,
    synth_biased,
)
from .errors import (  # noqa: F401
    ConfigError,
    DataError,
    NumericError,
    ReckonerError,
    UndefinedRateError,
)
from .metrics import (  # noqa: F401
    FairnessReport,
    accuracy,
    bias_gap,
    confusion,
    demographic_parity,
    equalized_odds,
    fairness_report,
    rates,
)
from .models import (  # noqa: F401
    AdamState,
    FeedForwardClassifier,
    LinearClassifier,
    ModelParams,
    NoiseWrapper,
    adam_step,
    bce,
    blend,
    lr_fit,
)
from .confidence import (  # noqa: F401
    BucketReport,
    BucketSpec,
    ConfidenceSplit,
    bucket_analysis,
    confidence_of,
    feature_histograms,
    split_by_confidence,
)
from .pipeline import (  # noqa: F401
    PseudoLearnState,
    ReckonerModel,
    ServingModel,
    TrainConfig,
    erm_baseline,
    identify,
    initialize,
    predict,
    pseudo_learning_cycle,
    refinement_step,
    train,
)
