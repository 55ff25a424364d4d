"""Variable-exponent Lebesgue and Hardy space computations for martingales
on finite filtered probability spaces."""

from .errors import (
    DomainError,
    NumericalError,
    ResourceError,
    ValidationError,
    VexmartError,
)
from .space import (
    ConditionKResult,
    Exponent,
    FilteredSpace,
    aoyama_c,
    build_dyadic_space,
    build_mary_space,
    condition_k,
    constant_exponent,
    exponent_algebra,
    validate_filtration,
)
from .varlp import (
    NormResult,
    check_holder,
    check_power_identity,
    indicator_norm_profile,
    indicator_product_ratio,
    luxemburg_norm,
    modular,
    norm_modular_bridge,
)
from .martingale import (
    Martingale,
    StoppingTime,
    cond_expect,
    cond_square,
    count_stopping_times,
    make_martingale,
    martingale_from_terminal,
    maximal,
    sample_stopping_times,
    stop,
    validate_stopping_time,
)
from .hardy import (
    AtomicDecomposition,
    a_quantity,
    atomic_decompose,
    hmax_norm,
    hs_norm,
    is_atom,
    prop41_bounds,
    reconstruct,
)
from .bmo import bmo_norm, duality_pairing_ratio, lipschitz_norm
from .experiments import (
    ConstantReport,
    TrialConfig,
    default_test_matrix,
    doob_strong_check,
    exp_jn_curve,
    generate_exponent,
    generate_martingale,
    jn_equivalence,
    lemma34_check,
    nakai_sadasue,
    violation_33_search,
    weak_type_check,
)

__version__ = "0.1.0"

__all__ = [
    "VexmartError", "ValidationError", "DomainError", "ResourceError",
    "NumericalError",
    "FilteredSpace", "Exponent", "ConditionKResult", "build_dyadic_space",
    "build_mary_space", "validate_filtration", "constant_exponent",
    "condition_k", "aoyama_c", "exponent_algebra",
    "NormResult", "modular", "luxemburg_norm", "check_power_identity",
    "check_holder", "norm_modular_bridge", "indicator_norm_profile",
    "indicator_product_ratio",
    "Martingale", "StoppingTime", "make_martingale",
    "martingale_from_terminal", "cond_expect", "cond_square", "maximal",
    "stop", "validate_stopping_time", "count_stopping_times",
    "sample_stopping_times",
    "AtomicDecomposition", "atomic_decompose", "a_quantity", "reconstruct",
    "is_atom", "hs_norm", "hmax_norm", "prop41_bounds",
    "bmo_norm", "lipschitz_norm", "duality_pairing_ratio",
    "TrialConfig", "ConstantReport", "generate_martingale",
    "generate_exponent", "weak_type_check", "doob_strong_check",
    "lemma34_check", "jn_equivalence", "exp_jn_curve", "nakai_sadasue",
    "violation_33_search", "default_test_matrix",
]
