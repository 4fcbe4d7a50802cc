"""Limit laws of Poisson processes of totally geodesic submanifolds.

The package materializes the one-parameter zoo of zero-mean infinitely
divisible laws whose Levy measures live on (0, 1) with a stable-like
singularity at 0 and a beta-like endpoint factor at 1, indexed by an
ambient dimension d and a submanifold dimension k with 2k > d + 1:

- pairs: admissibility and the closed-form variances and cumulants of
  dimension pairs, without numpy;
- measures: the Levy measures, their shapes and densities, and the
  fixed-codimension limit family;
- specfun: the self-contained special-function layer (log-gamma,
  regularized incomplete beta, two-sided bounds used by the tests);
- regime: the Gaussian-versus-degenerate dichotomy of sequences of
  dimension pairs, driven by the threshold statistic r^(d/k) / d;
- spectral: characteristic exponents and FFT recovery of densities;
- sampler: exact-law Monte Carlo with compensated jumps and certified
  inverse-CDF tables;
- quadrature: the tanh-sinh and exp-sinh rules behind spectral and sampler;
- cli: the `hyplevy` command.

The exports below load lazily: `import hyplevy` runs none of these
modules, and the first use of a name imports the module that defines it,
so pairs, specfun, regime and cli work without ever importing numpy.
"""

import importlib

# where each export is defined; __getattr__ imports that module on first use
_EXPORTS = {
    "errors": (
        "ConvergenceError",
        "DecayDetectionError",
        "DivergentMomentError",
        "DomainError",
        "HyplevyError",
        "InadmissiblePairError",
        "QuadratureError",
        "SamplerConfigError",
    ),
    "pairs": ("DimensionPair", "cumulant", "is_admissible", "log_variance", "variance"),
    "measures": ("LevyMeasure1D", "make_measure"),
    "regime": (
        "E_TIMES_PI",
        "ExplicitFamily",
        "FixedCodimensionFamily",
        "PowerLawFamily",
        "ProbeTable",
        "RegimeVerdict",
        "classify_sequence",
        "probe_regime",
        "tail_second_moment",
        "threshold_stat",
    ),
    "sampler": (
        "SampleBatch",
        "SamplerConfig",
        "empirical_cumulants",
        "inverse_jump_cdf",
        "partial_moment",
        "sample",
        "tail_mass",
    ),
    "spectral": (
        "CdfTable",
        "DensityGrid",
        "STANDARD_NORMAL",
        "char_exponent",
        "char_function",
        "invert_to_density",
        "ks_distance",
        "ks_distance_sample",
    ),
    "specfun": ("taylor_remainder_bound",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.3.0"

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """Import an export's defining module on first use (PEP 562) and keep
    the value in the package namespace, so later lookups skip this hook."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
