"""What importing hyplevy costs: the lazy package namespace, and the CLI
paths that start without numpy.

The closed forms (pairs, specfun, regime) need only math; numpy comes in
with measures, sampler, spectral and quadrature. The start-up checks run
in fresh interpreters, since this one has numpy loaded already.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import hyplevy_env
import hyplevy

SUBMODULES = ("errors", "pairs", "measures", "regime", "sampler", "spectral", "specfun")
NUMPY_FREE = ("errors", "specfun", "pairs", "regime", "cli")
SRC = Path(hyplevy.__file__).resolve().parent


def run_fresh(script: str, **env: str) -> list[str]:
    """stdout lines of script run in a fresh interpreter on this hyplevy."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=hyplevy_env(**env), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestLazyNamespace:
    def test_each_export_is_its_defining_modules_object(self):
        for name in hyplevy.__all__:
            if name == "__version__":
                continue
            homes = [
                m for m in SUBMODULES
                if name in importlib.import_module(f"hyplevy.{m}").__all__
            ]
            assert len(homes) == 1, (name, homes)
            module = importlib.import_module(f"hyplevy.{homes[0]}")
            assert getattr(hyplevy, name) is getattr(module, name), name

    def test_dir_lists_every_export(self):
        assert set(hyplevy.__all__) <= set(dir(hyplevy))

    def test_unknown_attribute_is_named(self):
        with pytest.raises(AttributeError, match="no_such_export"):
            hyplevy.no_such_export

    def test_one_export_loads_only_its_module_chain(self):
        lines = run_fresh(
            "import sys\n"
            "from hyplevy import invert_to_density\n"
            "print(sorted(m for m in sys.modules if m.startswith('hyplevy')))"
        )
        loaded = ast.literal_eval(lines[-1])
        assert "hyplevy.spectral" in loaded
        for name in ("hyplevy.sampler", "hyplevy.regime", "hyplevy.cli"):
            assert name not in loaded


# each argv runs through main() in a fresh interpreter; the last loads
# numpy on purpose, so the check is seen to tell the two apart
CLI_CASES = [
    (None, False),
    (["--help"], False),
    (["--version"], False),
    (["variance", "40", "21"], False),
    (["specfun", "--op", "reg-inc-beta", "2.5", "3", "0.4"], False),
    (["specfun", "--op", "taylor-bound", "4", "0.5"], False),
    (["classify", "--sequence", "power-law", "--gamma", "1.0", "--beta", "0.3"], False),
    (["probe", "--sequence", "power-law", "--gamma", "1.0", "--beta", "0.7",
      "--n", "1,1000000", "--eps", "0.1,0.5", "--out", "p.csv"], False),
    (["cumulants", "--family", "limit", "--b", "2"], True),
]


@pytest.mark.parametrize(
    "argv, loads_numpy", CLI_CASES,
    ids=["import", "help", "version", "variance", "specfun", "taylor-bound", "classify", "probe",
         "cumulants"],
)
def test_cli_start_imports_numpy_only_where_needed(tmp_path, argv, loads_numpy):
    script = "import sys\nfrom hyplevy.cli import main\n"
    if argv is not None:
        script += f"print('exit', main({argv!r}))\n"
    script += "print('numpy' in sys.modules)"
    lines = run_fresh(script, HYPLEVY_OUTDIR=str(tmp_path))
    if argv is not None:
        assert "exit 0" in lines
    assert lines[-1] == str(loads_numpy)


def module_level_imports(tree: ast.Module) -> list[str]:
    """The modules imported by statements that run at import time: the
    module body and its if/try blocks, not function or class bodies.
    Relative imports come back with their leading dots."""
    names, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo += [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
    return names


@pytest.mark.parametrize("module", NUMPY_FREE)
def test_numpy_free_modules_import_no_numpy_at_module_level(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imports = module_level_imports(tree)
    assert not [n for n in imports if n == "numpy" or n.startswith("numpy.")]
    relative = {n[1:] for n in imports if n.startswith(".")}
    assert relative <= {"", *NUMPY_FREE}, relative


FAMILY_BLIND = ("sampler", "spectral")
SHAPE_CLASSES = {"_Shape", "PairShape", "LimitShape"}


@pytest.mark.parametrize("module", FAMILY_BLIND)
def test_only_measures_tells_the_families_apart(module):
    # the sampler and spectral modules ask a measure's shape, never its
    # type: no shape class is imported or named (so no isinstance test
    # against one), and no pair is read off a shape
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            assert node.name.rpartition(".")[2] not in SHAPE_CLASSES, node.name
        elif isinstance(node, ast.Name):
            assert node.id not in SHAPE_CLASSES, (node.id, node.lineno)
        elif isinstance(node, ast.Attribute):
            assert node.attr not in SHAPE_CLASSES | {"pair"}, (node.attr, node.lineno)
        elif isinstance(node, ast.Constant):
            assert node.value not in SHAPE_CLASSES, (node.value, node.lineno)


def test_a_measure_has_no_float_constant():
    # the constant exp(log_coef + log_weight) meets a quadrature result
    # only in LevyMeasure1D._times_coef
    from hyplevy.measures import LevyMeasure1D

    assert not hasattr(LevyMeasure1D, "coef")
    assert callable(LevyMeasure1D._times_coef)


WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_the_bench_trace_targets_resolve():
    # the traced bench runs wrap these module attributes; read from the
    # bench's source without importing it, each must still be there, and
    # be the function its span names
    if not WORKLOADS.is_file():
        pytest.skip("no bench/workloads.py beside the tests")
    targets = {}
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("MC_TARGETS", "DG_TARGETS"):
                targets[name] = ast.literal_eval(node.value)
    assert sorted(targets) == ["DG_TARGETS", "MC_TARGETS"]
    for module, attr, span in targets["MC_TARGETS"] + targets["DG_TARGETS"]:
        home, _, name = span.rpartition(".")
        traced = getattr(importlib.import_module(module), attr)
        assert traced is getattr(importlib.import_module(f"hyplevy.{home}"), name), span
