"""WiFi-CSI micro-gesture and behavior analysis toolkit.

Simulates Fresnel-zone channel responses for desk-scale gestures, selects
and filters the most informative subcarrier, segments gestures out of the
amplitude stream, classifies them as typing or mouse movement, and infers
behaviors (surfing / working / gaming) from gesture sequences with
two-state hidden Markov models.
"""
from .behavior import (
    Behavior,
    BehaviorHmm,
    BehaviorProfile,
    GestureSequence,
    PROFILES,
    baum_welch,
    build_emission,
    classify_behavior,
    estimate_initial,
    fit_behavior_models,
    forward_log_likelihood,
    sample_behavior_sequence,
)
from .channel import (
    Annotation,
    ChannelModel,
    CsiTrace,
    FresnelGeometry,
    GestureKind,
    GestureModel,
    cfr_at,
    excess_path,
    simulate_plate_sweep,
    simulate_trace,
    subcarrier_wavelengths,
    zone_boundary_radius,
    zone_index,
)
from .classify import (
    CrossValidationResult,
    FeatureVector,
    GestureLabel,
    LabeledExample,
    cross_validate,
    extract_features,
    fit,
)
from .config import PipelineConfig, load_config
from .pipeline import RunReport, evaluate_system, run_pipeline
from .preprocess import (
    AmplitudeSeries,
    FilterSpec,
    analytic_gain,
    butterworth_lowpass,
    measured_gain,
    select_subcarrier,
    subcarrier_variances,
)
from .segmentation import (
    GestureSegment,
    SegmenterParams,
    Segmentation,
    mark_end_point,
    moving_sum,
    segment,
    sliding_variance,
    smooth_variance,
)

__version__ = "0.1.0"
