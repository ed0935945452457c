"""Masked generative token-sequence enhancement testbed.

Builds synthetic Zipf-skewed token corpora, trains a small masked-token
predictor with exact gradients under a cosine or scarcity-aware
coarse-to-fine masking curriculum, decodes iteratively by confidence, and
optionally re-masks suspicious tokens with a corruption-trained corrector.
"""

from .corpus import (
    Corpus,
    FrequencyTable,
    corrupt_sequence,
    document_frequency,
    generate_corpus,
    load_corpus,
    save_corpus,
    sequence_base_probabilities,
)
from .corrector import (
    CorrectorModel,
    CorrectorTrainConfig,
    CorrectorVerdict,
    correct,
    corrupt_for_training,
    detect_and_remask,
    train_corrector,
)
from .decoder import decode, plan_open_counts
from .errors import ConfigError, NumericsError
from .harness import (
    ExperimentConfig,
    MetricsReport,
    ablate_steps,
    compare_masking_modes,
    run_experiment,
)
from .predictor import (
    ConditioningContext,
    PredictionOutput,
    PredictorModel,
    TrainConfig,
    build_conditioning,
    forward,
    masked_ce_loss,
    train,
)
from .schedule import (
    MaskMode,
    ScheduleConfig,
    apply_mask,
    cosine_probability,
    ctf_probabilities,
    ctf_probability_table,
    expected_masked_cosine,
    sample_mask,
)

__version__ = "0.1.0"
