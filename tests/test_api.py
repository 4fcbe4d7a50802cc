"""The public surface: every exported name and the parameters it takes.

A law is fixed by its pair or codimension and its weight, so any other
option is a tolerance or a level; a new one shows up here as a diff.
"""

import dataclasses
import inspect

import hyplevy
from hyplevy.errors import HyplevyError
from hyplevy.quadrature import exp_sinh, tanh_sinh
from hyplevy.specfun import inc_beta, reg_inc_beta

PARAMS = {
    "DecayDetectionError": ("message", "achieved"),
    "DimensionPair": ("d", "k"),
    "LevyMeasure1D": ("shape", "log_weight"),
    "is_admissible": ("d", "k"),
    "variance": ("pair",),
    "log_variance": ("pair",),
    "cumulant": ("pair", "m"),
    "levy_density": ("pair", "x"),
    "normalized_density": ("pair", "x"),
    "codim_limit_density": ("b", "x"),
    "codim_limit_cumulant": ("b", "m"),
    "make_measure": ("kind", "param"),
    "threshold_stat": ("pair",),
    "tail_second_moment": ("pair", "eps"),
    "FixedCodimensionFamily": ("b", "d_offset"),
    "PowerLawFamily": ("gamma", "beta", "d_step", "rounding"),
    "ExplicitFamily": ("pairs",),
    "RegimeVerdict": ("label", "threshold_limit", "rationale"),
    "ProbeTable": ("rows", "verdict"),
    "classify_sequence": ("family", "margin"),
    "probe_regime": ("family", "n_values", "eps_values"),
    "CdfTable": ("x0", "step", "values"),
    "DensityGrid": ("x0", "step", "values", "meta"),
    "char_exponent": ("measure", "t"),
    "char_function": ("measure", "t"),
    "invert_to_density": ("measure", "half_width", "n_points"),
    "ks_distance": ("a", "b"),
    "ks_distance_sample": ("sample", "dist"),
    "taylor_remainder_bound": ("n", "x"),
    "SamplerConfig": ("cutoff_delta", "seed", "batch_size"),
    "SampleBatch": ("values", "config", "diagnostics"),
    "sample": ("measure", "n", "config"),
    "tail_mass": ("measure", "delta"),
    "partial_moment": ("measure", "delta", "m", "side"),
    "inverse_jump_cdf": ("measure", "p", "delta"),
    "empirical_cumulants": ("values", "max_order"),
}
# exception classes that take the arguments of Exception itself
ERRORS = {
    "HyplevyError",
    "DomainError",
    "InadmissiblePairError",
    "DivergentMomentError",
    "ConvergenceError",
    "QuadratureError",
    "SamplerConfigError",
}
CONSTANTS = {"__version__", "E_TIMES_PI", "STANDARD_NORMAL"}


def params(obj) -> tuple:
    return tuple(inspect.signature(obj).parameters)


def test_every_export_is_pinned():
    assert set(hyplevy.__all__) == set(PARAMS) | ERRORS | CONSTANTS
    assert len(hyplevy.__all__) == len(set(hyplevy.__all__))


def test_parameter_names_of_the_exports():
    got = {name: params(getattr(hyplevy, name)) for name in PARAMS}
    assert got == PARAMS


def test_errors_add_no_parameters():
    for name in ERRORS:
        cls = getattr(hyplevy, name)
        assert issubclass(cls, HyplevyError) and "__init__" not in vars(cls), name


def test_constants_are_not_callable():
    assert not any(callable(getattr(hyplevy, name)) for name in CONSTANTS)


def test_quadrature_and_incomplete_beta_parameters():
    # the levels and the continued fraction's tolerances are fixed; only
    # the quadrature tolerances, which callers set differently, remain
    assert params(tanh_sinh) == ("f", "a", "b", "rel_tol", "abs_tol")
    assert params(exp_sinh) == ("f", "a", "rel_tol", "abs_tol")
    assert params(reg_inc_beta) == ("p", "q", "x")
    assert params(inc_beta) == ("p", "q", "x")


def test_measure_fields():
    names = [f.name for f in dataclasses.fields(hyplevy.LevyMeasure1D)]
    assert names == ["shape", "log_weight"]
