"""The public surface: every exported name and the parameters it takes.

A law is fixed by its pair or codimension and its weight, so any other
option is a tolerance or a level; a new one shows up here as a diff.
"""

import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import hyplevy
from hyplevy import (
    DimensionPair,
    ExplicitFamily,
    FixedCodimensionFamily,
    LevyMeasure1D,
    PowerLawFamily,
    classify_sequence,
    cumulant,
    inverse_jump_cdf,
    is_admissible,
    make_measure,
    partial_moment,
    probe_regime,
    tail_mass,
    tail_second_moment,
    taylor_remainder_bound,
)
from hyplevy.errors import DomainError, HyplevyError
from hyplevy.measures import LimitShape, PairShape
from hyplevy.pairs import log_sphere_surface
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


def test_the_package_version_is_the_projects():
    # provenance and the stream identity name hyplevy.__version__, so the
    # installed distribution must carry the same one
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("no pyproject.toml beside the tests")
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == hyplevy.__version__


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


PAIR = DimensionPair(7, 5)
MEASURE = make_measure("rescaled", PAIR)
# each integer or real argument of the public calls: the call with that
# argument, a valid Python value, and what the result keeps of it (None
# where the result is a plain number)
ARGUMENTS = {
    "DimensionPair.d": (lambda v: DimensionPair(v, 5), 7, lambda r: r.d),
    "DimensionPair.k": (lambda v: DimensionPair(7, v), 5, lambda r: r.k),
    "cumulant.m": (lambda v: cumulant(PAIR, v), 3, None),
    "log_sphere_surface.b": (log_sphere_surface, 3, None),
    "make_measure.param": (lambda v: make_measure("limit", v), 3, lambda r: r.shape.codim),
    "LevyMeasure1D.log_weight": (
        lambda v: LevyMeasure1D(PairShape(PAIR), v), -0.5, lambda r: r.log_weight
    ),
    "LimitShape.codim": (LimitShape, 3, lambda r: r.codim),
    "PairShape.pair": (PairShape, PAIR, lambda r: r.pair),
    "FixedCodimensionFamily.b": (FixedCodimensionFamily, 2, lambda r: r.b),
    "FixedCodimensionFamily.d_offset": (
        lambda v: FixedCodimensionFamily(2, v), 3, lambda r: r.d_offset
    ),
    "PowerLawFamily.gamma": (lambda v: PowerLawFamily(v, 0.3), 1.5, lambda r: r.gamma),
    "PowerLawFamily.beta": (lambda v: PowerLawFamily(1.0, v), 0.3, lambda r: r.beta),
    "PowerLawFamily.d_step": (lambda v: PowerLawFamily(1.0, 0.3, v), 4, lambda r: r.d_step),
    "FixedCodimensionFamily.realize.n": (
        lambda v: FixedCodimensionFamily(2).realize(v), 5, lambda r: r.d - 2
    ),
    "PowerLawFamily.realize.n": (
        lambda v: PowerLawFamily(1.0, 0.3).realize(v), 5, lambda r: r.d // 4
    ),
    "ExplicitFamily.realize.n": (lambda v: ExplicitFamily((PAIR,)).realize(v), 1, None),
    "classify_sequence.margin": (
        lambda v: classify_sequence(ExplicitFamily((PAIR,)), v), 0.2, None
    ),
    "tail_second_moment.eps": (lambda v: tail_second_moment(PAIR, v), 0.1, None),
    "probe_regime.n_values": (
        lambda v: probe_regime(FixedCodimensionFamily(2), [v], [0.1]), 5, lambda r: r.rows[0].n
    ),
    "probe_regime.eps_values": (
        lambda v: probe_regime(FixedCodimensionFamily(2), [5], [v]),
        0.1,
        lambda r: r.rows[0].epsilon,
    ),
    "taylor_remainder_bound.n": (lambda v: taylor_remainder_bound(v, 0.5), 3, None),
    "taylor_remainder_bound.x": (lambda v: taylor_remainder_bound(3, v), 0.5, None),
    "tail_mass.delta": (lambda v: tail_mass(MEASURE, v), 0.01, None),
    "partial_moment.delta": (lambda v: partial_moment(MEASURE, v, 2, "below"), 0.01, None),
    "partial_moment.m": (lambda v: partial_moment(MEASURE, 0.01, v, "above"), 3, None),
    "inverse_jump_cdf.delta": (lambda v: inverse_jump_cdf(MEASURE, 0.5, v), 0.01, None),
}


@pytest.mark.parametrize("bad", [True, "0.5", None, 1 + 0j], ids=repr)
@pytest.mark.parametrize("name", ARGUMENTS)
def test_a_non_number_argument_is_a_domain_error(name, bad):
    # never a bare TypeError, and never accepted as the number it converts to
    call, _, _ = ARGUMENTS[name]
    with pytest.raises(DomainError):
        call(bad)


@pytest.mark.parametrize(
    "name", [n for n, (_, v, _) in ARGUMENTS.items() if type(v) is float] + ["log_sphere_surface.b"]
)
def test_an_int_too_large_for_a_double_is_a_domain_error(name):
    # a real argument converts to a float, which 10**400 overflows
    call, _, _ = ARGUMENTS[name]
    with pytest.raises(DomainError):
        call(10**400)


@pytest.mark.parametrize(
    "name", [n for n, (_, v, _) in ARGUMENTS.items() if type(v) in (int, float)]
)
def test_numpy_numbers_are_held_as_python_numbers(name):
    call, value, kept = ARGUMENTS[name]
    np_value = np.int64(value) if type(value) is int else np.float64(value)
    got, want = call(np_value), call(value)
    assert got == want
    if kept is not None:
        assert type(kept(got)) is type(value) and kept(got) == value


def test_numpy_integer_pairs_are_the_python_pairs():
    # an equal pair hashes alike, keys the same jump table and serializes
    pair = DimensionPair(np.int64(7), np.int32(5))
    assert pair == PAIR and hash(pair) == hash(PAIR)
    assert hash(PairShape(pair)) == hash(PairShape(PAIR))
    assert json.loads(json.dumps(dataclasses.asdict(pair))) == {"d": 7, "k": 5}
    assert is_admissible(np.int64(7), np.int64(5))
    assert not any(is_admissible(*bad) for bad in ((True, 5), (7, "5"), (7.0, 5), (None, 5)))
    # d = n + d_offset at a numpy index, which was refused as inadmissible
    row = probe_regime(FixedCodimensionFamily(2), [np.int64(5)], [0.1]).rows[0]
    assert (row.d, row.k) == (7, 5) and type(row.d) is int
