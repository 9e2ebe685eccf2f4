"""Lifted linear-parameter modeling of controlled dynamics.

Data-driven Koopman-style models for discrete-time control systems:
simulation and snapshot collection, dictionary evaluation and normal
forms, EDMD fits with a tight worst-case error certificate (the
consistency index), input-state separable model extraction, and
dictionary learning that minimizes the certified error directly.
"""

from .dynamics import (
    AugmentedSnapshots,
    BUILTIN_SYSTEMS,
    ControlSystem,
    ExperimentPlan,
    SnapshotSet,
    Trajectory,
    dc_motor_tanh,
    dc_motor_tanhcos,
    discretize_rk4,
    example_poly,
    get_system,
    load_snapshots,
    run_experiments,
    save_snapshots,
    simulate,
    to_augmented,
)
from .edmd import (
    ConsistencyReport,
    EdmdFit,
    consistency_index,
    fit_edmd,
    invariance_proximity,
    predict_function,
    projection_residual,
    report_to_json,
)
from .errors import (
    ConfigError,
    DegenerateData,
    DimensionMismatch,
    KoopliftError,
    NonFiniteGradient,
    NonFiniteLoss,
    NonFiniteState,
    OutOfBoxWarning,
    RankDeficientAtInput,
    RankDeficientProbe,
    RankWarning,
    UnknownInputValue,
)
from .observables import (
    InputMatrixFunction,
    NormalDictionary,
    StateDictionary,
    TrainableNormalDictionary,
    check_rank_condition,
    control_independent_extension,
    decompose_separable,
    dictionary_from_json,
    dictionary_to_json,
    eval_matrix,
    example_poly_normal_basis,
    example_poly_state_basis,
    load_dictionary,
    monomial_featurizer,
    normal_form_dictionary,
    parametric_family,
    save_dictionary,
    verify_normality,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
