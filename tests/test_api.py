"""The public API holds every name the benchmark imports.

The benchmark (``bench/``) is a client of the package: each name it imports
from ``rtea`` must stay public, so a trim of ``rtea.__all__`` that would
break it fails here first, and the whole public surface is pinned by name.
The benchmark's adapter (``bench/api.py``) is also run, briefly, on every
workload, so a change to how the solvers are called or what they return
fails here too.
The package also imports without scipy, which would add over a second to
every cold CLI run.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rtea

BENCH = Path(__file__).resolve().parent.parent / "bench"


def names_imported_from_rtea(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "rtea" and node.level == 0:
            names.update(alias.name for alias in node.names)
    return names


BENCH_FILES = sorted(BENCH.glob("*.py"))


def test_bench_files_found():
    assert any(names_imported_from_rtea(p) for p in BENCH_FILES)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_imports_are_public(path):
    for name in sorted(names_imported_from_rtea(path)):
        # a submodule (``from rtea import fileio``) is public as a module
        if importlib.util.find_spec(f"rtea.{name}") is None:
            assert name in rtea.__all__, f"{path.name} imports rtea.{name}, not in __all__"


@pytest.fixture()
def bench(monkeypatch):
    """``bench/api`` and ``bench/workloads``, imported as the benchmark does."""
    names = ("api", "objective", "workloads")
    for name in names:
        sys.modules.pop(name, None)
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("api"), importlib.import_module("workloads")
    for name in names:
        sys.modules.pop(name, None)


def test_bench_adapter_solves_every_workload(bench):
    api, workloads = bench
    for w in workloads.WORKLOADS.values():
        sol = api.Problem(w, workloads.make_record(w, 0).y).solve(max_iter=2)
        assert len(sol.xs) == len(w.periods), w.name
        assert sol.iterations == 2 and len(sol.costs) == 3, w.name
        assert all(x.shape == (w.n,) for x in sol.xs), w.name


PUBLIC_NAMES = [
    "DecompositionResult", "EnvelopeSpectrum", "Mixture", "NumericalError",
    "PenaltySpec", "PeriodSpec", "SolverConfig", "TransientTrain", "WeightArray",
    "beta_lookup", "build_weight_array", "check_convexity",
    "combined_majorizer_weights", "default_config", "envelope_spectrum",
    "estimate_sigma", "find_peaks", "gen_mixture", "gen_train", "group_penalty",
    "majorizer_denom", "majorizer_weights", "pogs_solve",
    "rmse", "rtea_solve", "smoothed_penalty",
]


def test_public_surface_is_pinned():
    # a change to the public API shows here as a reviewed edit of the list
    assert sorted(rtea.__all__) == PUBLIC_NAMES


def test_all_entries_resolve():
    assert len(set(rtea.__all__)) == len(rtea.__all__)
    for name in rtea.__all__:
        assert hasattr(rtea, name), name


def test_cold_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(rtea.__file__).resolve().parent.parent))
    code = (
        "import sys, rtea, rtea.cli\n"
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def test_cold_extract_leaves_numpy_ma_out(tmp_path):
    # np.median imports numpy.ma on its first call; the noise estimate does not
    from rtea.fileio import write_columns_csv
    from rtea.synth import gen_mixture

    write_columns_csv(str(tmp_path / "signal.csv"), {"y": gen_mixture(n_samples=256).y})
    env = dict(os.environ, PYTHONPATH=str(Path(rtea.__file__).resolve().parent.parent))
    code = (
        "import sys\n"
        "from rtea.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    args = ["extract", str(tmp_path / "signal.csv"), "--period1", "32", "--period2", "53",
            "--out", str(tmp_path / "out")]
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "0"


def loaded_after(code):
    """The modules named numpy or rtea.* that a fresh interpreter holds
    after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(Path(rtea.__file__).resolve().parent.parent))
    code += (
        "\nimport sys\n"
        "print(' '.join(m for m in sys.modules if m == 'numpy' or m.startswith('rtea.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_bare_import_loads_no_submodule():
    assert loaded_after("import rtea") == set()


@pytest.mark.parametrize("module", sorted(rtea._NAMES))
def test_submodule_is_an_attribute_of_a_bare_import(module):
    # callers may read rtea.params.X with no import but ``import rtea``
    loaded = loaded_after(f"import rtea\nassert rtea.{module}.__name__ == 'rtea.{module}'")
    assert f"rtea.{module}" in loaded


def test_a_name_loads_only_its_module():
    loaded = loaded_after("from rtea import rtea_solve")
    assert "rtea.solver" in loaded
    assert not loaded & {"rtea.synth", "rtea.analysis"}


@pytest.mark.parametrize("name", ["gen_mixture", "envelope_spectrum"])
def test_a_leaf_name_loads_no_regularizer(name):
    # the input rules live in a leaf module, so these need no penalty code
    loaded = loaded_after(f"from rtea import {name}")
    assert "rtea._checks" in loaded
    assert not loaded & {"rtea.regularizers", "rtea.penalties"}


def test_dir_lists_every_public_name():
    assert set(rtea.__all__) <= set(dir(rtea))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rtea import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES
    assert all(namespace[name] is getattr(rtea, name) for name in PUBLIC_NAMES)


def test_unknown_name_is_refused_by_name():
    with pytest.raises(AttributeError, match="module 'rtea' has no attribute 'rtea_solver'"):
        rtea.rtea_solver
    with pytest.raises(ImportError, match="cannot import name 'rtea_solver'"):
        exec("from rtea import rtea_solver", {})
