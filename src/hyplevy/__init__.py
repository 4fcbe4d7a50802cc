"""Limit laws of Poisson processes of totally geodesic submanifolds.

The package materializes the one-parameter zoo of zero-mean infinitely
divisible laws whose Levy measures live on (0, 1) with a stable-like
singularity at 0 and a beta-like endpoint factor at 1, indexed by an
ambient dimension d and a submanifold dimension k with 2k > d + 1:

- measures: admissibility, Levy measures, exact variances and cumulants,
  the fixed-codimension limit family;
- specfun: the self-contained special-function layer (log-gamma,
  regularized incomplete beta, two-sided bounds used by the tests);
- regime: the Gaussian-versus-degenerate dichotomy of sequences of
  dimension pairs, driven by the threshold statistic r^(d/k) / d;
- spectral: characteristic exponents and FFT recovery of densities;
- sampler: exact-law Monte Carlo with compensated jumps and certified
  inverse-CDF tables;
- cli: the `hyplevy` command.
"""

from .errors import (
    ConvergenceError,
    DecayDetectionError,
    DivergentMomentError,
    DomainError,
    HyplevyError,
    InadmissiblePairError,
    QuadratureError,
    SamplerConfigError,
)
from .measures import (
    DimensionPair,
    LevyMeasure1D,
    codim_limit_cumulant,
    codim_limit_density,
    cumulant,
    is_admissible,
    levy_density,
    log_variance,
    make_measure,
    normalized_density,
    variance,
)
from .regime import (
    E_TIMES_PI,
    ExplicitFamily,
    FixedCodimensionFamily,
    PowerLawFamily,
    ProbeTable,
    RegimeVerdict,
    classify_sequence,
    probe_regime,
    tail_second_moment,
    threshold_stat,
)
from .sampler import (
    SampleBatch,
    SamplerConfig,
    empirical_cumulants,
    inverse_jump_cdf,
    partial_moment,
    sample,
    tail_mass,
)
from .spectral import (
    CdfTable,
    DensityGrid,
    STANDARD_NORMAL,
    char_exponent,
    char_function,
    invert_to_density,
    ks_distance,
    ks_distance_sample,
    taylor_remainder_bound,
)

__version__ = "0.2.0"

__all__ = [
    "__version__",
    "HyplevyError",
    "DomainError",
    "InadmissiblePairError",
    "DivergentMomentError",
    "ConvergenceError",
    "QuadratureError",
    "DecayDetectionError",
    "SamplerConfigError",
    "DimensionPair",
    "LevyMeasure1D",
    "is_admissible",
    "variance",
    "log_variance",
    "cumulant",
    "levy_density",
    "normalized_density",
    "codim_limit_density",
    "codim_limit_cumulant",
    "make_measure",
    "E_TIMES_PI",
    "threshold_stat",
    "tail_second_moment",
    "FixedCodimensionFamily",
    "PowerLawFamily",
    "ExplicitFamily",
    "RegimeVerdict",
    "ProbeTable",
    "classify_sequence",
    "probe_regime",
    "CdfTable",
    "DensityGrid",
    "STANDARD_NORMAL",
    "char_exponent",
    "char_function",
    "invert_to_density",
    "ks_distance",
    "ks_distance_sample",
    "taylor_remainder_bound",
    "SamplerConfig",
    "SampleBatch",
    "sample",
    "tail_mass",
    "partial_moment",
    "inverse_jump_cdf",
    "empirical_cumulants",
]
