import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import sys
import tempfile
import warnings
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtea.analysis import envelope_spectrum, find_peaks
from rtea.cli import build_parser, main
from rtea.fileio import read_columns_csv, write_columns_csv
from rtea.params import PeriodSpec, default_config, estimate_sigma
from rtea.penalties import FAMILIES
from rtea.solver import SolverConfig, pogs_solve, rtea_solve
from rtea.synth import gen_mixture

from oracles import bench_record


def run(args):
    return main([str(a) for a in args])


def exit_code(args):
    """The exit status a shell sees: main's return value, or the status of
    argparse's exit when the arguments fail to parse."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


# the flags of each extract decomposition; mca is the rtea objective at eta = 0
MODE_FLAGS = {"rtea": ["--mode", "rtea"], "mca": ["--eta", 0], "pogs": ["--mode", "pogs"]}


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture()
def generated(tmp_path):
    out = tmp_path / "gen"
    assert run(["generate", "--t1", 32, "--t2", 53, "--n", 1024,
                "--sigma", 0.5, "--seed", 7, "--out", out]) == 0
    return out


class TestGenerate:
    def test_files_and_shape(self, generated):
        cols = read_columns_csv(str(generated / "signal.csv"))
        assert set(cols) == {"index", "y", "x1_true", "x2_true", "w"}
        assert len(cols["y"]) == 1024
        manifest = json.loads((generated / "truth.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["settings"]["t1"] == 32
        assert len(manifest["onsets1"]) == 32
        np.testing.assert_allclose(
            cols["y"], cols["x1_true"] + cols["x2_true"] + cols["w"]
        )

    def test_replayable(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["generate", "--seed", 3, "--out", out]) == 0
        assert read_bytes(a / "signal.csv") == read_bytes(b / "signal.csv")

    def test_matches_library(self, tmp_path):
        out = tmp_path / "g"
        assert run(["generate", "--seed", 7, "--jitter", 2, "--modulation-freq", 6,
                    "--fs", 12800, "--out", out]) == 0
        mix = gen_mixture(seed=7, jitter_pct=2.0, modulation_freq_hz=6.0,
                          sample_rate_hz=12800.0)
        cols = read_columns_csv(str(out / "signal.csv"))
        for name, expected in (("y", mix.y), ("x1_true", mix.x1), ("x2_true", mix.x2),
                               ("w", mix.noise)):
            np.testing.assert_array_equal(cols[name], expected)
        truth = json.loads((out / "truth.json").read_text())
        assert truth["onsets1"] == mix.onsets1.tolist()
        assert truth["onsets2"] == mix.onsets2.tolist()
        assert truth["child_seeds"] == list(mix.seeds)
        assert truth["settings"] == {
            "n": 1024, "t1": 32.0, "t2": 53.0, "sigma": 0.5, "transient_len": 10,
            "jitter_pct": 2.0, "modulation_freq_hz": 6.0, "sample_rate_hz": 12800.0}

    def test_sigma_zero(self, tmp_path):
        out = tmp_path / "clean"
        assert run(["generate", "--sigma", 0, "--seed", 1, "--out", out]) == 0
        cols = read_columns_csv(str(out / "signal.csv"))
        np.testing.assert_array_equal(cols["y"], cols["x1_true"] + cols["x2_true"])
        np.testing.assert_array_equal(cols["w"], 0.0)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RTEA_SEED", "11")
        out_env = tmp_path / "env"
        assert run(["generate", "--out", out_env]) == 0
        out_flag = tmp_path / "flag"
        assert run(["generate", "--seed", 11, "--out", out_flag]) == 0
        assert read_bytes(out_env / "signal.csv") == read_bytes(out_flag / "signal.csv")

    @pytest.mark.parametrize("seed, env, cause", [
        (-1, None, "argument --seed: expected an integer >= 0, got '-1'"),
        (None, "abc", "error: RTEA_SEED: expected an integer >= 0, got 'abc'"),
        (None, "-1", "error: RTEA_SEED: expected an integer >= 0, got '-1'"),
    ], ids=["negative-flag", "text-env", "negative-env"])
    def test_bad_seed_is_usage_error_naming_its_source(self, tmp_path, monkeypatch, capsys,
                                                       seed, env, cause):
        if env is not None:
            monkeypatch.setenv("RTEA_SEED", env)
        flags = [] if seed is None else ["--seed", seed]
        out = tmp_path / "g"
        assert exit_code(["generate", *flags, "--out", out]) == 2
        assert cause in capsys.readouterr().err
        assert not out.exists()

    def test_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["generate", "--n", 128, "--t2", 40]) == 0
        assert (tmp_path / "out" / "signal.csv").exists()

    def test_modulation_requires_fs(self, tmp_path, capsys):
        assert run(["generate", "--modulation-freq", 6, "--out", tmp_path / "g"]) == 2
        assert "sample_rate" in capsys.readouterr().err


class TestExtract:
    def test_end_to_end_improves_on_input(self, generated, tmp_path, capsys):
        out = tmp_path / "ext"
        assert run(["extract", generated / "signal.csv",
                    "--period1", 32, "--period2", 53, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "sigma_hat" in printed and "lambda0" in printed
        assert "convexity bound" in printed and "iterations" in printed
        manifest = json.loads((out / "manifest.json").read_text())
        m = manifest["metrics"]
        assert m["rmse_x1"] < m["baseline_rmse_y_x1"]
        assert m["rmse_x2"] < m["baseline_rmse_y_x2"]
        cols = read_columns_csv(str(out / "components.csv"))
        assert set(cols) == {"index", "x1", "x2", "residual"}
        cost = read_columns_csv(str(out / "cost.csv"))
        assert np.all(np.diff(cost["cost"]) <= 1e-12)

    def test_replay_byte_identical(self, generated, tmp_path):
        a, b = tmp_path / "ex1", tmp_path / "ex2"
        for out in (a, b):
            assert run(["extract", generated / "signal.csv",
                        "--period1", 32, "--period2", 53, "--out", out]) == 0
        assert read_bytes(a / "components.csv") == read_bytes(b / "components.csv")
        assert read_bytes(a / "cost.csv") == read_bytes(b / "cost.csv")

    def test_missing_periods_is_usage_error(self, generated, tmp_path, capsys):
        code = run(["extract", generated / "signal.csv", "--out", tmp_path / "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert "prior information" in err

    def test_pogs_mode_single_component(self, generated, tmp_path):
        out = tmp_path / "pogs"
        assert run(["extract", generated / "signal.csv", "--mode", "pogs",
                    "--period1", 32, "--out", out]) == 0
        cols = read_columns_csv(str(out / "components.csv"))
        assert set(cols) == {"index", "x1", "residual"}
        # the truth metrics of the one component, from the tail both modes share
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert metrics["rmse_x1"] < metrics["baseline_rmse_y_x1"]
        assert "rmse_x2" not in metrics and "baseline_rmse_y_x2" not in metrics

    def test_pogs_penalty_changes_no_output(self, generated, tmp_path):
        # the one pogs penalty has a = 0, where every family is abs
        outputs = {}
        for family in (None, *FAMILIES):
            out = tmp_path / str(family)
            flags = [] if family is None else ["--penalty", family]
            assert run(["extract", generated / "signal.csv", "--mode", "pogs",
                        "--period1", 32, *flags, "--out", out]) == 0
            outputs[family] = [read_bytes(out / f) for f in ("components.csv", "cost.csv")]
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["penalty"] == "abs"
            assert manifest["settings"]["penalty"] == (family or "atan")
        assert all(files == outputs[None] for files in outputs.values())

    @pytest.mark.parametrize("mode, kept", [("pogs", 1), ("rtea", 1), ("rtea", 2)])
    def test_one_truth_column_gets_its_metrics(self, generated, tmp_path, mode, kept):
        cols = read_columns_csv(str(generated / "signal.csv"))
        path = tmp_path / "one_truth.csv"
        write_columns_csv(str(path), {"y": cols["y"], f"x{kept}_true": cols[f"x{kept}_true"]})
        out = tmp_path / "x"
        assert run(["extract", path, "--mode", mode, "--period1", 32, "--period2", 53,
                    "--max-iter", 40, "--out", out]) == 0
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert {k for k in metrics if "rmse" in k} == {
            f"rmse_x{kept}", f"baseline_rmse_y_x{kept}"}
        assert metrics[f"rmse_x{kept}"] < metrics[f"baseline_rmse_y_x{kept}"]

    def test_mca_mode(self, generated, tmp_path):
        out = tmp_path / "mca"
        assert run(["extract", generated / "signal.csv", *MODE_FLAGS["mca"],
                    "--period1", 32, "--period2", 53, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lam0"] == 0.0

    @pytest.mark.parametrize("flags, argument", [
        (["--mode", "mca", "--eta", 1.5], "--mode"),
        (["--mode", "pogs", "--eta", 7], "--eta"),
        (["--mode", "pogs", "--a0-fraction", 1.5], "--a0-fraction"),
    ], ids=["mca-eta-1.5", "pogs-eta-7", "pogs-a0-fraction-1.5"])
    def test_out_of_range_setting_fails_at_parse(self, generated, tmp_path, capsys,
                                                  flags, argument):
        # every mode checks every setting, also one its decomposition ignores
        out = tmp_path / "x"
        assert exit_code(["extract", generated / "signal.csv", "--period1", 32,
                          "--period2", 53, *flags, "--out", out]) == 2
        assert f"argument {argument}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, files", [
        ("extract", ("components.csv", "cost.csv")),
        ("bench-eta", ("eta_sweep.csv",)),
    ], ids=["extract", "bench-eta"])
    def test_abs_penalty_takes_a0_zero(self, generated, tmp_path, command, files):
        outputs = {}
        for name, flags in (("abs", []), ("abs-a0-0", ["--a0-fraction", 0])):
            out = tmp_path / name
            assert run([command, generated / "signal.csv", "--period1", 32, "--period2", 53,
                        "--penalty", "abs", "--max-iter", 60, *flags, "--out", out]) == 0
            outputs[name] = [read_bytes(out / f) for f in files]
        assert outputs["abs"] == outputs["abs-a0-0"]
        if command == "extract":
            config = json.loads((tmp_path / "abs" / "manifest.json").read_text())["config"]
            assert config["a0"] == 0.0 and config["penalty0"] == "abs"

    def test_high_eta_warns(self, generated, tmp_path, capsys):
        out = tmp_path / "warn"
        assert run(["extract", generated / "signal.csv", "--period1", 32,
                    "--period2", 53, "--eta", 0.95, "--out", out]) == 0
        assert "warning" in capsys.readouterr().err

    def test_config_file(self, generated, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "eta": 0.4,
            "period_samples": [32, 53],
            "n1": 3,
            "m": 4,
            "max_iter": 60,
        }))
        out = tmp_path / "cfg"
        assert run(["extract", generated / "signal.csv", "--config", cfg_path,
                    "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["eta"] == 0.4
        assert manifest["config"]["max_iter"] == 60

    def test_unknown_config_key(self, generated, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"period_samples": [32, 53], "volume": 11}))
        assert run(["extract", generated / "signal.csv", "--config", cfg_path,
                    "--out", tmp_path / "o"]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_seed_is_not_a_config_key(self, generated, tmp_path, capsys):
        cfg_path = tmp_path / "seeded.json"
        cfg_path.write_text(json.dumps({"period_samples": [32, 53], "seed": 1}))
        assert run(["extract", generated / "signal.csv", "--config", cfg_path,
                    "--out", tmp_path / "o"]) == 2
        assert "unknown config keys: ['seed']" in capsys.readouterr().err

    def test_frequency_flags(self, tmp_path):
        out_gen = tmp_path / "gen"
        assert run(["generate", "--t1", 128, "--t2", 160, "--n", 2048,
                    "--seed", 2, "--out", out_gen]) == 0
        out = tmp_path / "freq"
        assert run(["extract", out_gen / "signal.csv", "--freq1", 100,
                    "--freq2", 80, "--fs", 12800, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["periods"][0]["period_int"] == 128
        assert manifest["periods"][1]["period_int"] == 160

    def test_missing_input_is_io_error(self, tmp_path):
        assert run(["extract", tmp_path / "nope.csv", "--period1", 32,
                    "--period2", 53, "--out", tmp_path / "x"]) == 4

    @pytest.mark.parametrize("mode", ["rtea", "mca", "pogs"])
    def test_overflowing_input_is_numerical_failure(self, tmp_path, capsys, mode):
        n = 256
        y = 1e200 * np.random.default_rng(0).normal(size=n)
        write_columns_csv(str(tmp_path / "huge.csv"), {"y": y})
        assert run(["extract", tmp_path / "huge.csv", *MODE_FLAGS[mode], "--period1", 16,
                    "--period2", 25, "--out", tmp_path / "x"]) == 3
        assert "cost became non-finite" in capsys.readouterr().err

    def test_zero_a0_passes_an_overflowing_convexity_bound(self, tmp_path, capsys):
        # the noise estimate is huge, so k0*lam0 overflows and the bound
        # 1/(k0*lam0) rounds to 0; the default a0 = 0 still passes it, and
        # the run fails where it really does, at the start cost
        y = np.tile([1.7e308] * 3 + [-1.7e308] * 2 + [0.0], 40)
        write_columns_csv(str(tmp_path / "huge.csv"), {"y": y})
        assert run(["extract", tmp_path / "huge.csv", "--period1", 16,
                    "--period2", 27, "--out", tmp_path / "x"]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: cost became non-finite at iteration 0\n")

    def test_overflowing_start_cost_is_numerical_failure(self, tmp_path, capsys):
        # lam * P(y) overflows at the start x = y, before any map evaluation
        assert run(["generate", "--n", 512, "--seed", 4, "--out", tmp_path / "gen"]) == 0
        capsys.readouterr()
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["extract", tmp_path / "gen" / "signal.csv", "--mode", "pogs",
                        "--period1", 32, "--lam", "1e308", "--out", out])
        err = capsys.readouterr().err
        assert code == 3 and not caught and "Warning" not in err
        assert "cost became non-finite at iteration 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["rtea", "mca", "pogs"])
    def test_reversed_input_gives_reversed_components(self, tmp_path, mode):
        # every mask is a palindrome and the median is order-free, so the
        # reversed record has the same noise estimate, the same weights and
        # a reversed optimum
        y = gen_mixture(n_samples=1024, t1=32, t2=53, seed=7).y
        runs = []
        for name, signal in (("fwd", y), ("rev", y[::-1])):
            write_columns_csv(str(tmp_path / f"{name}.csv"), {"y": signal})
            out = tmp_path / name
            assert run(["extract", tmp_path / f"{name}.csv", *MODE_FLAGS[mode],
                        "--period1", 32, "--period2", 53, "--out", out]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            runs.append((read_columns_csv(str(out / "components.csv")), manifest))
        (fwd, fwd_record), (rev, rev_record) = runs
        assert rev_record["sigma_hat"] == fwd_record["sigma_hat"]
        assert rev_record["config"] == fwd_record["config"]
        assert rev_record["metrics"]["iterations"] == fwd_record["metrics"]["iterations"]
        assert rev_record["metrics"]["converged"] and fwd_record["metrics"]["converged"]
        names = [c for c in fwd if c != "index"]
        assert names == (["x1", "residual"] if mode == "pogs" else ["x1", "x2", "residual"])
        for c in names:
            x = fwd[c]
            assert np.max(np.abs(rev[c][::-1] - x)) <= 1e-10 * np.max(np.abs(x)), c

    @pytest.mark.parametrize("mode", ["rtea", "mca", "pogs"])
    def test_zero_noise_estimate_is_usage_error(self, tmp_path, capsys, mode):
        # more than half the samples equal: the MAD noise estimate is 0
        y = np.zeros(400)
        y[::40] = 1.0
        write_columns_csv(str(tmp_path / "impulses.csv"), {"y": y})
        assert run(["extract", tmp_path / "impulses.csv", *MODE_FLAGS[mode],
                    "--period1", 40, "--period2", 53, "--out", tmp_path / "o"]) == 2
        # one message, from the one check every mode goes through
        assert capsys.readouterr().err.startswith("error: noise estimate is 0.0, ")

    def test_zero_noise_estimate_with_explicit_lam_runs(self, tmp_path):
        y = np.zeros(400)
        y[::40] = 1.0
        write_columns_csv(str(tmp_path / "impulses.csv"), {"y": y})
        out = tmp_path / "o"
        assert run(["extract", tmp_path / "impulses.csv", "--mode", "pogs",
                    "--period1", 40, "--lam", 0.5, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sigma_hat"] == 0.0 and manifest["metrics"]["converged"]

    def test_nonfinite_input_is_usage_error(self, tmp_path, capsys):
        y = np.random.default_rng(0).normal(size=256)
        y[5] = np.nan
        write_columns_csv(str(tmp_path / "nan.csv"), {"y": y})
        assert run(["extract", tmp_path / "nan.csv", "--period1", 16,
                    "--period2", 25, "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert "non-finite input" in err and "y[5] = nan" in err
        assert "sigma" not in err

    def test_nonfinite_truth_column_is_usage_error(self, generated, tmp_path, capsys):
        cols = read_columns_csv(str(generated / "signal.csv"))
        cols["x2_true"][7] = -np.inf
        write_columns_csv(str(tmp_path / "bad_truth.csv"), cols)
        out = tmp_path / "x"
        assert run(["extract", tmp_path / "bad_truth.csv", "--period1", 32,
                    "--period2", 53, "--out", out]) == 2
        assert "x2_true[7] = -inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["rtea", "pogs"])
    def test_mask_longer_than_signal_is_usage_error(self, tmp_path, capsys, mode):
        write_columns_csv(str(tmp_path / "short.csv"), {"y": np.array([0.1, -0.4, 0.3])})
        # n1 = 3, m = 4 at period 7: a 31-sample mask over 3 samples
        assert run(["extract", tmp_path / "short.csv", "--mode", mode, "--period1", 7,
                    "--period2", 9, "--out", tmp_path / "x"]) == 2
        assert "mask length 31 exceeds signal length 3" in capsys.readouterr().err

    def test_single_column_headerless_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(repr(float(v)) for v in rng.normal(size=256)) + "\n")
        out = tmp_path / "raw_out"
        assert run(["extract", path, "--period1", 16, "--period2", 25,
                    "--max-iter", 20, "--out", out]) == 0
        cols = read_columns_csv(str(out / "components.csv"))
        assert len(cols["x1"]) == 256

    @pytest.mark.parametrize("mode, flags", [
        pytest.param(mode, flags, id=f"{name}-{mode}")
        for name, flags, modes in (
            ("max-iter-0", ["--max-iter", 0], ("rtea", "mca", "pogs")),
            ("negative-tol", ["--tol", -1], ("rtea", "mca", "pogs")),
            ("nan-tol", ["--tol", "nan"], ("rtea", "mca", "pogs")),
            ("inf-tol", ["--tol", "inf"], ("rtea", "mca", "pogs")),
            ("a0-fraction-1.5", ["--a0-fraction", 1.5], ("rtea", "mca", "pogs")),
        )
        for mode in modes
    ])
    def test_invalid_solver_settings_are_usage_errors(self, generated, tmp_path, mode, flags):
        # --a0-fraction is range-checked as it is parsed, the others by the solver
        assert exit_code(["extract", generated / "signal.csv", *MODE_FLAGS[mode],
                          "--period1", 32, "--period2", 53, *flags,
                          "--out", tmp_path / "x"]) == 2

    def test_unconverged_run_warns_on_stderr(self, generated, tmp_path, capsys):
        assert run(["extract", generated / "signal.csv", "--period1", 32, "--period2", 53,
                    "--max-iter", 2, "--out", tmp_path / "short"]) == 0
        out, err = capsys.readouterr()
        assert "iterations = 2 (not converged)\n" in out and "warning" not in out
        assert err == "warning: not converged within --max-iter 2 iterations (--tol 1e-08)\n"
        # a converged run leaves stderr empty
        assert run(["extract", generated / "signal.csv", "--mode", "pogs", "--period1", 32,
                    "--out", tmp_path / "pogs"]) == 0
        out, err = capsys.readouterr()
        assert "(converged)" in out and err == ""

    def test_lam_outside_pogs_is_usage_error(self, generated, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["extract", generated / "signal.csv", "--period1", 32, "--period2", 53,
                    "--lam", 50, "--out", out]) == 2
        assert "--lam applies to --mode pogs only" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_lam_is_usage_error(self, generated, tmp_path, capsys):
        assert run(["extract", generated / "signal.csv", "--mode", "pogs", "--period1", 32,
                    "--lam", "inf", "--out", tmp_path / "x"]) == 2
        assert "lam must be a finite positive real, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("text, cause", [
        ("y,w\n0.1,0.2\n0.3\n", "row 2 has 1 fields, expected 2"),
        ("0.1,0.2\n0.3,0.4\n", "headerless CSV must have a single column"),
        ("", "empty CSV"),
        ("y\n0.1\nabc\n", "row 2, column 'y': not a number: 'abc'"),
        ("y,y\n0.1,5\n0.2,6\n", "column name 'y' is repeated in the header"),
    ], ids=["ragged-row", "headerless-two-columns", "empty-file", "non-numeric-cell",
            "repeated-header"])
    def test_malformed_csv_is_usage_error(self, tmp_path, capsys, text, cause):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert run(["extract", path, "--period1", 16, "--period2", 25,
                    "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {cause}\n"

    @pytest.mark.parametrize("command, flags", [
        ("extract", ["--mode", "pogs", "--period1", 3]),
        ("analyze", ["--fs", 12800]),
    ], ids=["extract", "analyze"])
    def test_non_utf8_input_is_named_in_the_error(self, tmp_path, capsys, command, flags):
        path = tmp_path / "latin.csv"
        path.write_bytes("y\n0.5\ncaf\u00e9\n".encode("latin-1"))
        out = tmp_path / "x"
        assert run([command, path, *flags, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xe9 in position 9: "
            "invalid continuation byte\n")
        assert not out.exists()

    @pytest.mark.parametrize("header", ["y\n", ""], ids=["header", "headerless"])
    def test_byte_order_mark_is_skipped(self, tmp_path, header):
        y = np.random.default_rng(5).normal(size=400)
        text = header + "".join(f"{v!r}\n" for v in y.tolist())
        components = {}
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(bom + text.encode())
            assert run(["extract", path, "--mode", "pogs", "--period1", 32,
                        "--out", tmp_path / name]) == 0
            components[name] = read_bytes(tmp_path / name / "components.csv")
        assert components["bom"] == components["plain"]

    @pytest.mark.parametrize("command, flags, cause", [
        ("extract", ["--mode", "pogs", "--period1", 32],
         "expected a 'y' column (or a single-column CSV), got columns ['index', ' y']"),
        ("analyze", ["--fs", 12800],
         "no x1/x2/y columns to analyze, got columns ['index', ' y']"),
    ], ids=["extract", "analyze"])
    def test_padded_header_is_named_in_the_error(self, tmp_path, capsys, command, flags, cause):
        path = tmp_path / "padded.csv"
        path.write_text("index, y\n" + "".join(f"{i}, {i % 7}.5\n" for i in range(400)))
        assert run([command, path, *flags, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {cause}\n"


def extract_with_config(generated, tmp_path, cfg, *flags, name="cfg"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    return run(["extract", generated / "signal.csv", "--config", cfg_path, *flags,
                "--out", tmp_path / name])


@pytest.mark.parametrize("command, flags, cause", [
    ("extract", ["--period1", "inf", "--period2", 53],
     "period_samples must be a finite positive real, got inf"),
    ("extract", ["--period1", "1e300", "--period2", 53], "exceeds signal length 1024"),
    ("extract", ["--freq1", 43, "--freq2", 58, "--fs", "inf"],
     "sample_rate_hz must be a finite positive real, got inf"),
    ("analyze", ["--fs", "inf"], "sample rate fs must be a finite positive real, got inf"),
    ("analyze", ["--fs", 12800, "--smooth-hz", "inf"],
     "smooth_hz must be a finite positive real, got inf"),
    ("analyze", ["--fs", 12800, "--smooth-hz", "nan"],
     "smooth_hz must be a finite positive real, got nan"),
    ("analyze", ["--fs", 12800, "--smooth-hz", -5],
     "smooth_hz must be a finite positive real, got -5.0"),
    ("analyze", ["--fs", 12800, "--smooth-hz", 0],
     "smooth_hz must be a finite positive real, got 0.0"),
    # a 1 024-sample record at 12.8 kHz has a 513-bin spectrum of 12.5 Hz bins
    ("analyze", ["--fs", 12800, "--smooth-hz", "1e5"],
     "smooth_hz = 100000.0 spans a 8001-bin smoothing kernel, wider than the 513-bin spectrum"),
    ("analyze", ["--fs", 12800, "--tol-hz", -1], "tol_hz must be a finite positive real, got -1.0"),
    ("analyze", ["--fs", 12800, "--tol-hz", "nan"], "tol_hz must be a finite positive real, got nan"),
    ("analyze", ["--fs", 12800, "--band", "nan", 100],
     "band_hz must not have a NaN edge, got (nan, 100.0)"),
    ("generate", ["--t1", "inf"], "t1 must be a finite positive real, got inf"),
    ("generate", ["--sigma", "nan"], "sigma must be a finite nonnegative real, got nan"),
    ("generate", ["--sigma", "inf"], "sigma must be a finite nonnegative real, got inf"),
    ("generate", ["--modulation-freq", "inf", "--fs", 100],
     "modulation_freq_hz must be a finite positive real, got inf"),
    ("generate", ["--modulation-freq", 6, "--fs", "nan"],
     "sample_rate_hz must be a finite positive real, got nan"),
], ids=["extract-inf-period", "extract-huge-period", "extract-inf-fs", "analyze-inf-fs",
        "analyze-inf-smooth", "analyze-nan-smooth", "analyze-negative-smooth",
        "analyze-zero-smooth", "analyze-wide-smooth",
        "analyze-negative-tol-hz", "analyze-nan-tol-hz", "analyze-nan-band", "generate-inf-t1",
        "generate-nan-sigma", "generate-inf-sigma", "generate-inf-modulation",
        "generate-nan-fs"])
def test_nonfinite_or_huge_setting_is_usage_error(generated, tmp_path, capsys,
                                                  command, flags, cause):
    inputs = [] if command == "generate" else [generated / "signal.csv"]
    out = tmp_path / "x"
    assert run([command, *inputs, *flags, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err
    # a refused run leaves no output directory behind
    assert not out.exists()


class TestConfigFile:
    def test_flag_overrides_file_prior(self, generated, tmp_path):
        cfg = {"fault_freq_hz": [400, 241.5], "sample_rate_hz": 12800}
        assert extract_with_config(generated, tmp_path, cfg, "--period2", 40) == 0
        periods = json.loads((tmp_path / "cfg" / "manifest.json").read_text())["periods"]
        assert periods[0]["fault_freq_hz"] == 400.0
        assert periods[1]["period_samples"] == 40.0 and periods[1]["fault_freq_hz"] is None

    def test_file_keeps_prior_the_flags_leave_out(self, generated, tmp_path):
        cfg = {"period_samples": [32, 53]}
        assert extract_with_config(generated, tmp_path, cfg, "--period1", 32) == 0
        periods = json.loads((tmp_path / "cfg" / "manifest.json").read_text())["periods"]
        assert [p["period_samples"] for p in periods] == [32.0, 53.0]

    @pytest.mark.parametrize("cfg, flag", [
        ({"n1": 3.7}, "--n1"),
        ({"max_iter": 60.9}, "--max-iter"),
        ({"max_iter": 60.0}, "--max-iter"),
        ({"tol": None}, "--tol"),
        ({"n1": None}, "--n1"),
        ({"tol": "abc"}, "--tol"),
    ], ids=["fractional-n1", "fractional-max-iter", "float-max-iter", "null-tol", "null-n1",
            "text-tol"])
    def test_bad_value_is_usage_error_naming_the_flag(self, generated, tmp_path, capsys,
                                                      cfg, flag):
        with pytest.raises(SystemExit) as exc:
            extract_with_config(generated, tmp_path, {"period_samples": [32, 53], **cfg})
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_bad_etas_names_the_flag(self, generated, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bench-eta", generated / "signal.csv", "--period1", 32, "--period2", 53,
                 "--etas", "0.5,abc", "--out", tmp_path / "s"])
        assert exc.value.code == 2
        assert "argument --etas: " in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, cause", [
        ([32, 53], "a config file holds one JSON object"),
        ({"period_samples": [32, 53, 7]}, "period_samples must be a scalar or a 2-element list"),
        ({"period_samples": [32, 53], "n1": [3]}, "n1 must be a scalar or a 2-element list"),
    ], ids=["not-an-object", "three-periods", "one-element-n1"])
    def test_malformed_file_is_usage_error(self, generated, tmp_path, capsys, cfg, cause):
        assert extract_with_config(generated, tmp_path, cfg) == 2
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize("text, cause", [
        ('{"max_iter": 60,}',
         "Expecting property name enclosed in double quotes: line 1 column 17 (char 16)"),
        ('{"volume": 11}', "unknown config keys: ['volume']"),
        ('{"n1": [3]}', "n1 must be a scalar or a 2-element list"),
    ], ids=["malformed-json", "unknown-key", "one-element-n1"])
    def test_error_names_the_file(self, generated, tmp_path, capsys, text, cause):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        assert run(["extract", generated / "signal.csv", "--config", cfg_path,
                    "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: {cause}")
        assert not (tmp_path / "o").exists()

    def test_byte_order_mark_is_skipped(self, generated, tmp_path):
        text = json.dumps({"period_samples": [32, 53], "max_iter": 20})
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_bytes(bom + text.encode())
            assert run(["extract", generated / "signal.csv", "--config", cfg_path,
                        "--out", tmp_path / name]) == 0
        assert (read_bytes(tmp_path / "bom" / "components.csv")
                == read_bytes(tmp_path / "plain" / "components.csv"))

    def test_both_prior_kinds_in_file_is_usage_error(self, generated, tmp_path, capsys):
        cfg = {"period_samples": [32, 53], "fault_freq_hz": [400, 241.5],
               "sample_rate_hz": 12800}
        assert extract_with_config(generated, tmp_path, cfg) == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, flags, rest", [
        ({"eta": 0.4}, ["--eta", 0.4], None),
        ({"a0_fraction": 0.3}, ["--a0-fraction", 0.3], None),
        ({"penalty": "log"}, ["--penalty", "log"], None),
        ({"n1": [3, 2]}, ["--n1", "3,2"], None),
        ({"m": [4, 3]}, ["--m", "4,3"], None),
        ({"max_iter": 60}, ["--max-iter", 60], None),
        ({"tol": 1e-6}, ["--tol", 1e-6], None),
        ({"period_samples": [32, 53]}, ["--period1", 32, "--period2", 53], []),
        ({"fault_freq_hz": [400, 241.5]}, ["--freq1", 400, "--freq2", 241.5], ["--fs", 12800]),
        ({"sample_rate_hz": 12800}, ["--fs", 12800], ["--freq1", 400, "--freq2", 241.5]),
    ], ids=["eta", "a0_fraction", "penalty", "n1", "m", "max_iter", "tol", "period_samples",
            "fault_freq_hz", "sample_rate_hz"])
    def test_key_and_flag_give_same_components(self, generated, tmp_path, cfg, flags, rest):
        rest = ["--period1", 32, "--period2", 53] if rest is None else rest
        assert extract_with_config(generated, tmp_path, cfg, *rest) == 0
        out = tmp_path / "flags"
        assert run(["extract", generated / "signal.csv", *rest, *flags, "--out", out]) == 0
        assert read_bytes(out / "components.csv") == read_bytes(tmp_path / "cfg" / "components.csv")


class TestAnalyze:
    def test_peaks_report(self, generated, tmp_path):
        out = tmp_path / "ext"
        assert run(["extract", generated / "signal.csv", "--period1", 32,
                    "--period2", 53, "--out", out]) == 0
        out_an = tmp_path / "an"
        fs = 12800.0
        assert run(["analyze", out / "components.csv", "--fs", fs,
                    "--band", 100, 2000, "--nfft", 8192, "--out", out_an]) == 0
        report = json.loads((out_an / "peaks.json").read_text())
        assert set(report["components"]) == {"x1", "x2"}
        f1 = report["components"]["x1"]["fundamental_hz"]
        assert f1 == pytest.approx(fs / 32, abs=2 * fs / 8192)
        for name in ("x1", "x2"):
            assert (out_an / f"spectrum_{name}.csv").exists()

    def test_outputs_are_deterministic(self, generated, tmp_path):
        out = tmp_path / "ext"
        assert run(["extract", generated / "signal.csv", "--period1", 32,
                    "--period2", 53, "--max-iter", 30, "--out", out]) == 0
        written = []
        for _ in range(2):
            assert run(["analyze", out / "components.csv", "--fs", 12800,
                        "--band", 100, 2000, "--nfft", 4096, "--out", tmp_path / "an"]) == 0
            files = {f: read_bytes(tmp_path / "an" / f)
                     for f in ("peaks.json", "spectrum_x1.csv", "spectrum_x2.csv")}
            # the report's wall-clock timestamp is the only line allowed to differ
            files["peaks.json"] = b"".join(
                line for line in files["peaks.json"].splitlines(keepends=True)
                if not line.lstrip().startswith(b'"timestamp"'))
            written.append(files)
        assert written[0] == written[1]

    def test_plain_signal_column(self, tmp_path):
        fs = 1000.0
        t = np.arange(2000) / fs
        x = (1 + 0.6 * np.cos(2 * np.pi * 20 * t)) * np.sin(2 * np.pi * 250 * t)
        write_columns_csv(str(tmp_path / "y.csv"), {"y": x})
        out = tmp_path / "an"
        assert run(["analyze", tmp_path / "y.csv", "--fs", fs, "--band", 5, 100,
                    "--out", out]) == 0
        report = json.loads((out / "peaks.json").read_text())
        assert list(report["components"]) == ["y"]
        assert report["components"]["y"]["fundamental_hz"] == pytest.approx(20.0, abs=1.0)

    def test_empty_component_gives_empty_peaks(self, tmp_path):
        n = 512
        write_columns_csv(
            str(tmp_path / "components.csv"),
            {"index": np.arange(n), "x1": np.zeros(n), "x2": np.zeros(n)},
        )
        out = tmp_path / "an"
        assert run(["analyze", tmp_path / "components.csv", "--fs", 1000,
                    "--out", out]) == 0
        report = json.loads((out / "peaks.json").read_text())
        assert report["components"]["x1"]["peaks"] == []
        assert report["components"]["x1"]["fundamental_hz"] is None

    @pytest.mark.parametrize("scale", [0.0, 1.0], ids=["zero", "nonzero"])
    def test_band_outside_spectrum_is_usage_error(self, tmp_path, capsys, scale):
        # the band check holds for every component, also an all-zero one
        n = 512
        x = scale * np.random.default_rng(3).normal(size=(2, n))
        write_columns_csv(
            str(tmp_path / "components.csv"), {"index": np.arange(n), "x1": x[0], "x2": x[1]}
        )
        assert run(["analyze", tmp_path / "components.csv", "--fs", 100, "--band", 5000, 6000,
                    "--out", tmp_path / "an"]) == 2
        assert "lies outside the spectrum range" in capsys.readouterr().err


    def test_negative_max_peaks_fails_at_parse(self, generated, tmp_path, capsys):
        out = tmp_path / "an"
        assert exit_code(["analyze", generated / "signal.csv", "--fs", 12800,
                          "--max-peaks", -1, "--out", out]) == 2
        assert "argument --max-peaks: expected an integer >= 0, got '-1'" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_nonfinite_component_is_usage_error(self, tmp_path, capsys):
        x1 = np.array([0.1, np.nan, 0.3, -0.2])
        write_columns_csv(
            str(tmp_path / "components.csv"),
            {"index": np.arange(4), "x1": x1, "x2": np.zeros(4)},
        )
        out = tmp_path / "an"
        assert run(["analyze", tmp_path / "components.csv", "--fs", 1000,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert "non-finite input" in err and "x1[1] = nan" in err
        assert not (out / "peaks.json").exists()


class TestBenchEta:
    def test_sweep_csv(self, tmp_path):
        out_gen = tmp_path / "gen"
        assert run(["generate", "--n", 512, "--seed", 4, "--out", out_gen]) == 0
        out = tmp_path / "sweep"
        assert run(["bench-eta", out_gen / "signal.csv", "--period1", 32,
                    "--period2", 53, "--etas", "0.2,0.5,0.8",
                    "--max-iter", 60, "--out", out]) == 0
        cols = read_columns_csv(str(out / "eta_sweep.csv"))
        assert list(cols) == ["eta", "rmse_x1", "rmse_x2", "rmse_sum"]
        assert len(cols["eta"]) == 3

    def test_unconverged_etas_warn_naming_the_eta(self, tmp_path, capsys):
        out_gen = tmp_path / "gen"
        assert run(["generate", "--n", 512, "--seed", 4, "--out", out_gen]) == 0
        capsys.readouterr()
        assert run(["bench-eta", out_gen / "signal.csv", "--period1", 32, "--period2", 53,
                    "--etas", "0.2,0.5", "--max-iter", 2, "--out", tmp_path / "s"]) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: eta = {eta}: not converged within --max-iter 2 iterations "
            "(--tol 1e-08)\n" for eta in (0.2, 0.5))

    def test_config_file_settings(self, tmp_path):
        out_gen = tmp_path / "gen"
        assert run(["generate", "--n", 512, "--seed", 4, "--out", out_gen]) == 0
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"max_iter": 1}))
        sweeps = {}
        for name, extra in (("flag", ["--max-iter", 1]), ("file", ["--config", cfg_path]),
                            ("default", [])):
            out = tmp_path / name
            assert run(["bench-eta", out_gen / "signal.csv", "--period1", 32,
                        "--period2", 53, "--etas", "0.2,0.5", *extra, "--out", out]) == 0
            sweeps[name] = read_bytes(out / "eta_sweep.csv")
        assert sweeps["file"] == sweeps["flag"]
        assert sweeps["file"] != sweeps["default"]

    def test_record_holds_solver_settings(self, tmp_path):
        out_gen = tmp_path / "gen"
        assert run(["generate", "--n", 512, "--seed", 4, "--out", out_gen]) == 0
        out = tmp_path / "sweep"
        etas = [0.5, 0.1, 0.2]
        assert run(["bench-eta", out_gen / "signal.csv", "--period1", 32, "--period2", 53,
                    "--etas", ",".join(map(str, etas)), "--max-iter", 12, "--penalty", "log",
                    "--tol", 0.0001, "--out", out]) == 0
        record = json.loads((out / "eta_sweep.json").read_text())
        assert record["settings"] == {"etas": etas, "a0_fraction": 0.5, "penalty": "log",
                                      "max_iter": 12, "tol": 0.0001}
        # each eta's map evaluations and whether it converged, in --etas order
        y = read_columns_csv(str(out_gen / "signal.csv"))["y"]
        specs = [PeriodSpec(period_samples=t) for t in (32, 53)]
        solves = [rtea_solve(y, default_config(y, *specs, eta, 0.5, "log", 12, 0.0001))
                  for eta in etas]
        assert record["iterations"] == [res.iterations for res in solves]
        assert record["converged"] == [res.converged for res in solves] == [True, False, False]

    def test_every_default_eta_converges_on_a_benchmark_record(self, tmp_path):
        # an eta's RMSE is that of its optimum only if its solve converges,
        # so every default eta must converge within the default budget
        rec = bench_record("quickstart-1k", 0)
        write_columns_csv(str(tmp_path / "y.csv"),
                          {"y": rec.y, "x1_true": rec.truth[0], "x2_true": rec.truth[1]})
        out = tmp_path / "sweep"
        assert run(["bench-eta", tmp_path / "y.csv", "--period1", 32, "--period2", 53,
                    "--out", out]) == 0
        record = json.loads((out / "eta_sweep.json").read_text())
        assert record["settings"]["max_iter"] == 200 and len(record["settings"]["etas"]) == 9
        assert record["converged"] == [True] * 9

    def test_requires_truth(self, tmp_path):
        n = 128
        write_columns_csv(str(tmp_path / "y.csv"), {"y": np.random.default_rng(0).normal(size=n)})
        assert run(["bench-eta", tmp_path / "y.csv", "--period1", 16,
                    "--period2", 25, "--out", tmp_path / "s"]) == 2


# each case's command, its flags and the name of the JSON record it writes
RECORDS = {
    "generate": ("generate", [], "truth.json"),
    "extract": ("extract", ["--period1", 32, "--period2", 53, "--max-iter", 20],
                "manifest.json"),
    "analyze": ("analyze", ["--fs", 12800], "peaks.json"),
    "analyze-open-high": ("analyze", ["--fs", 12800, "--band", 10, "inf"], "peaks.json"),
    "analyze-open-low": ("analyze", ["--fs", 12800, "--band", "-inf", 200], "peaks.json"),
    "bench-eta": ("bench-eta", ["--period1", 32, "--period2", 53, "--etas", "0.3,0.6",
                                "--max-iter", 20], "eta_sweep.json"),
}
# the band each open-edge case records: the infinite edge as null
OPEN_BANDS = {"analyze-open-high": [10.0, None], "analyze-open-low": [None, 200.0]}


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("case", list(RECORDS))
def test_record_lists_every_output(generated, tmp_path, case):
    command, flags, name = RECORDS[case]
    inputs = [] if command == "generate" else [generated / "signal.csv"]
    out = tmp_path / "run"
    assert run([command, *inputs, *flags, "--out", out]) == 0
    record = strict_json((out / name).read_text())
    if case in OPEN_BANDS:
        assert record["settings"]["band_hz"] == OPEN_BANDS[case]
    assert {"command", "timestamp", "settings", "outputs"} <= set(record)
    assert record["command"] == command
    assert datetime.fromisoformat(record["timestamp"]).tzinfo is not None
    assert ("input" in record) == bool(inputs)
    for path in inputs:
        digest = hashlib.sha256(read_bytes(path)).hexdigest()
        assert record["input"] == {"path": str(path), "sha256": digest}
    paths = []
    for entry in record["outputs"].values():
        assert set(entry) == {"path", "sha256"}
        assert entry["sha256"] == hashlib.sha256(read_bytes(entry["path"])).hexdigest()
        paths.append(entry["path"])
    assert {os.path.dirname(p) for p in paths} == {str(out)}
    assert sorted(os.listdir(out)) == sorted([name, *map(os.path.basename, paths)])


# a one-row CSV: each command reads y, or x1 first where it analyzes components
ONE_ROW = "y,x1\n1.0,1.0\n"


@pytest.mark.parametrize("command, text, flags, cause", [
    ("extract", None, ["--freq1", 57.8, "--freq2", 43.3],
     "--fs (sample rate) is required with fault frequencies"),
    ("analyze", None, ["--fs", 12800, "--n-harmonics", 0], "n_harmonics must be >= 1, got 0"),
    ("extract", None, ["--period1", 32, "--period2", 53, "--n1", 0], "n1 must be >= 1, got 0"),
    ("extract", None, ["--period1", 32, "--period2", 53, "--m", 0], "m must be >= 1, got 0"),
    ("generate", None, ["--n", 0], "n_samples must be >= 1, got 0"),
    # found by the fuzz test below
    ("analyze", None, ["--fs", "5e-324"], "resolution fs / nfft = 5e-324 / 1024 underflows to 0"),
    ("analyze", None, ["--fs", "1e-300", "--smooth-hz", "1e300"],
     "smooth_hz = 1e+300 spans a inf-bin smoothing kernel, wider than the 513-bin spectrum"),
    ("analyze", None, ["--fs", 12800, "--n-harmonics", 10**8, "--tol-hz", 10**8],
     "tol_hz = 100000000.0 is not below the top of the spectrum, 6400.0 Hz"),
    ("generate", None, ["--modulation-freq", 1, "--fs", "5e-324"],
     "modulation phase 2*pi*modulation_freq_hz*n/sample_rate_hz = 2*pi*1.0*1024/5e-324 "
     "overflows"),
    # train 2's period is checked, under its own name, before train 1 is allocated
    ("generate", None, ["--n", 10**18, "--t2", "nan"], "t2 must be a finite positive real, got nan"),
    # the noise estimate and the spectrum need two samples; the error names the file
    ("analyze", ONE_ROW, ["--fs", 12800], "{input}: x1 needs at least 2 samples, got 1"),
    ("extract", ONE_ROW, ["--period1", 32, "--period2", 53],
     "{input}: y needs at least 2 samples, got 1"),
    ("extract", ONE_ROW, ["--mode", "pogs", "--period1", 32],
     "{input}: y needs at least 2 samples, got 1"),
    ("bench-eta", ONE_ROW, ["--period1", 32, "--period2", 53],
     "{input}: y needs at least 2 samples, got 1"),
], ids=["extract-freq-without-fs", "analyze-zero-harmonics", "extract-zero-n1",
        "extract-zero-m", "generate-zero-n", "analyze-subnormal-fs",
        "analyze-overflowing-smooth", "analyze-tolerance-past-the-spectrum",
        "generate-overflowing-modulation", "generate-huge-n-nan-t2", "analyze-one-row",
        "extract-one-row", "extract-pogs-one-row", "bench-eta-one-row"])
def test_refusal_names_its_cause(generated, tmp_path, capsys, command, text, flags, cause):
    # the input is the CSV ``text``, if given, else the generated signal
    source = generated / "signal.csv"
    if text is not None:
        source = tmp_path / "input.csv"
        source.write_text(text)
    inputs = [] if command == "generate" else [source]
    out = tmp_path / "x"
    assert run([command, *inputs, *flags, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {cause.format(input=source)}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags, line", [
    ("extract", ["--eta", "1.5"], "argument --eta: expected a value in [0, 1), got '1.5'"),
    ("extract", ["--a0-fraction", "nan"],
     "argument --a0-fraction: expected a value in [0, 1), got 'nan'"),
    ("extract", ["--n1", "1,2,3"],
     "argument --n1: expected an integer or two comma-separated integers, got '1,2,3'"),
    ("extract", ["--m", ","],
     "argument --m: expected an integer or two comma-separated integers, got ','"),
    ("bench-eta", ["--etas", "0.5,abc"],
     "argument --etas: expected a comma list of values in (0, 1), got '0.5,abc'"),
    ("bench-eta", ["--etas", "0"],
     "argument --etas: expected a comma list of values in (0, 1), got '0'"),
    ("analyze", ["--max-peaks", "1.5"],
     "argument --max-peaks: expected an integer >= 0, got '1.5'"),
], ids=["eta-1.5", "a0-fraction-nan", "n1-three-values", "m-empty-list", "etas-text",
        "etas-zero", "max-peaks-float"])
def test_flag_value_refusal_is_whole(generated, tmp_path, capsys, command, flags, line):
    # every other argument is valid, so the bad value is the run's one refusal
    rest = ["--fs", 12800] if command == "analyze" else ["--period1", 32, "--period2", 53]
    out = tmp_path / "x"
    assert exit_code([command, generated / "signal.csv", *rest, *flags, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"rtea {command}: error: {line}"
    assert not out.exists()


def parsed_defaults(command):
    """The settings ``command`` runs with when no optional flag is given."""
    inputs = [] if command == "generate" else ["signal.csv"]
    required = ["--fs", "12800"] if command == "analyze" else []
    return build_parser().parse_args([command, *inputs, *required])


def signature_defaults(func):
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


def field_defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)}


# default_config's solver settings and the attributes extract and bench-eta parse them into
SOLVER_SETTINGS = {"a0_fraction": "a0_fraction", "family": "penalty", "max_iter": "max_iter",
                   "tol": "tol"}


# each command, the library defaults it stands for and {library name: parsed attribute}
@pytest.mark.parametrize("command, defaults, names", [
    ("extract", signature_defaults(default_config), {"eta": "eta", **SOLVER_SETTINGS}),
    ("bench-eta", signature_defaults(default_config), SOLVER_SETTINGS),
    ("extract", signature_defaults(pogs_solve), {"max_iter": "max_iter", "tol": "tol"}),
    ("extract", field_defaults(SolverConfig), {"max_iter": "max_iter", "tol": "tol"}),
    # a single --n1 or --m value serves both components
    ("extract", {k: [v] for k, v in field_defaults(PeriodSpec).items()}, {"n1": "n1", "m": "m"}),
    ("bench-eta", {k: [v] for k, v in field_defaults(PeriodSpec).items()},
     {"n1": "n1", "m": "m"}),
    ("generate", signature_defaults(gen_mixture),
     {"n_samples": "n", "t1": "t1", "t2": "t2", "sigma": "sigma",
      "transient_len": "transient_len", "jitter_pct": "jitter"}),
    ("analyze", signature_defaults(envelope_spectrum),
     {"smooth_hz": "smooth_hz", "nfft": "nfft"}),
    ("analyze", signature_defaults(find_peaks),
     {"n_harmonics": "n_harmonics", "tol_hz": "tol_hz"}),
], ids=["extract-default_config", "bench-eta-default_config", "extract-pogs_solve",
        "extract-SolverConfig", "extract-PeriodSpec", "bench-eta-PeriodSpec",
        "generate-gen_mixture", "analyze-envelope_spectrum", "analyze-find_peaks"])
def test_cli_default_is_the_library_default(command, defaults, names):
    args = parsed_defaults(command)
    assert {name: getattr(args, attr) for name, attr in names.items()} == {
        name: defaults[name] for name in names}


@pytest.mark.parametrize("command, flags", [
    ("extract", []), ("extract", ["--mode", "pogs"]), ("extract", ["--eta", 0]),
    ("bench-eta", []),
], ids=["extract-rtea", "extract-pogs", "extract-mca", "bench-eta"])
def test_one_noise_estimate_per_run(generated, tmp_path, monkeypatch, command, flags):
    calls = []

    def counting(y):
        calls.append(y)
        return estimate_sigma(y)

    # the command's own call and any the library makes for it
    monkeypatch.setattr("rtea.cli.estimate_sigma", counting)
    monkeypatch.setattr("rtea.params.estimate_sigma", counting)
    assert run([command, generated / "signal.csv", "--period1", 32, "--period2", 53,
                "--max-iter", 2, *flags, "--out", tmp_path / "x"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command, flags", [
    ("extract", ["--eta", "1e-300"]), ("extract", ["--eta", "1e-310"]),
    ("extract", ["--eta", "5e-324"]), ("bench-eta", ["--etas", "1e-300"]),
], ids=["extract-1e-300", "extract-1e-310", "extract-5e-324", "bench-eta-1e-300"])
def test_eta_too_small_for_a_concave_coupling(generated, tmp_path, capsys, command, flags):
    out = tmp_path / "x"
    assert run([command, generated / "signal.csv", "--period1", 32, "--period2", 53,
                *flags, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: eta = {float(flags[1])} is too small for a concave coupling")
    assert err.endswith("; eta = 0 drops the coupling term\n")
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("extract", ["--eta", "1e-100"]),
    ("extract", ["--eta", "1e-310", "--a0-fraction", 0]),
    ("extract", ["--eta", "5e-324", "--penalty", "abs"]),
    ("extract", ["--eta", "0.5", "--a0-fraction", "5e-324"]),
    ("bench-eta", ["--etas", "1e-300", "--a0-fraction", 0]),
], ids=["eta-1e-100", "a0-fraction-0", "abs", "subnormal-a0", "bench-eta-a0-fraction-0"])
def test_tiny_eta_or_a0_runs(generated, tmp_path, command, flags):
    # no numpy warning either: tier-1 turns each into an error
    out = tmp_path / "x"
    assert run([command, generated / "signal.csv", "--period1", 32, "--period2", 53,
                "--max-iter", 20, *flags, "--out", out]) == 0
    if command == "extract" and flags[1] != "1e-100":
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["penalty0"], config["a0"]) == ("abs", 0.0)


def test_tiny_a0_fraction_ends_at_the_abs_cost(tmp_path):
    # a0 = 1e-300 is the abs coupling to within rounding; the atan penalty's
    # textbook closed form made it 8.07e286 "converged" after 1 evaluation
    assert run(["generate", "--seed", 3, "--out", tmp_path / "g"]) == 0
    costs = {}
    for fraction in (0, 1e-300):
        out = tmp_path / f"x{fraction}"
        assert run(["extract", tmp_path / "g" / "signal.csv", "--period1", 32, "--period2", 53,
                    "--a0-fraction", fraction, "--out", out]) == 0
        costs[fraction] = json.loads((out / "manifest.json").read_text())["metrics"]["final_cost"]
    assert costs[1e-300] == pytest.approx(costs[0], rel=1e-6)


def test_rms_of_a_huge_component_is_finite(tmp_path):
    x = np.random.default_rng(0).normal(size=1024)
    write_columns_csv(str(tmp_path / "c.csv"), {"x1": 1e160 * x})
    out = tmp_path / "a"
    assert run(["analyze", tmp_path / "c.csv", "--fs", 12800, "--out", out]) == 0
    rms = strict_json((out / "peaks.json").read_text())["components"]["x1"]["rms"]
    assert rms == pytest.approx(1e160 * float(np.sqrt(np.mean(x * x))), rel=1e-12)


def write_maxed(path):
    """A 256-sample record and its truth at +-1.5e308: its MAD overflows."""
    mix = gen_mixture(n_samples=256, t1=16, t2=27, seed=0)
    write_columns_csv(str(path), {"y": 1.5e308 * np.sign(mix.y),
                                  "x1_true": 1.5e308 * np.sign(mix.x1),
                                  "x2_true": 1.5e308 * np.sign(mix.x2)})


@pytest.mark.parametrize("command, flags", [
    ("extract", []), ("extract", ["--mode", "pogs"]), ("extract", ["--eta", 0]),
    ("bench-eta", []),
], ids=["extract-rtea", "extract-pogs", "extract-mca", "bench-eta"])
def test_overflowing_noise_estimate_is_usage_error(tmp_path, capsys, command, flags):
    write_maxed(tmp_path / "maxed.csv")
    out = tmp_path / "x"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([command, tmp_path / "maxed.csv", "--period1", 16, "--period2", 27,
                    "--max-iter", 2, *flags, "--out", out])
    assert (code, caught) == (2, [])
    assert capsys.readouterr().err.startswith(
        "error: noise estimate is inf, which cannot scale the regularization")
    assert not out.exists()


def test_overflowing_envelope_spectrum_is_usage_error(tmp_path, capsys):
    mix = gen_mixture(seed=0)
    write_columns_csv(str(tmp_path / "c.csv"),
                      {name: 1.6e308 / np.max(np.abs(x)) * x for name, x in
                       (("x1", mix.x1), ("x2", mix.x2))})
    out = tmp_path / "a"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["analyze", tmp_path / "c.csv", "--fs", 100, "--out", out])
    assert (code, caught) == (2, [])
    cause = "envelope spectrum of x overflows at largest |x| = 1.6e+308"
    assert capsys.readouterr().err == f"error: {cause}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, callee, args", [
    ("generate", "gen_mixture", ["--n", 10**14]),
    ("analyze", "envelope_spectrum", ["signal.csv", "--fs", 12800, "--nfft", 10**11]),
], ids=["generate", "analyze"])
def test_out_of_memory_is_usage_error(generated, tmp_path, monkeypatch, capsys,
                                      command, callee, args):
    # a stand-in for numpy's allocation failure: allocating for real fails
    # fast or not depending on the machine's overcommit mode
    def fail(*_, **__):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    monkeypatch.setattr(f"rtea.cli.{callee}", fail)
    monkeypatch.chdir(generated)
    out = tmp_path / "x"
    assert run([command, *args, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 728. TiB for an array\n")
    assert not out.exists()


def test_record_digest_is_of_the_input_as_read(tmp_path):
    # the run's components.csv replaces the input it was read from
    out = tmp_path / "o3"
    write_columns_csv(str(out / "components.csv"),
                      {"y": np.random.default_rng(3).normal(size=64)})
    original = hashlib.sha256(read_bytes(out / "components.csv")).hexdigest()
    assert run(["extract", out / "components.csv", "--mode", "pogs", "--period1", 8,
                "--m", 2, "--out", out]) == 0
    record = json.loads((out / "manifest.json").read_text())
    assert record["input"]["sha256"] == original
    assert hashlib.sha256(read_bytes(out / "components.csv")).hexdigest() != original


def test_record_digest_is_of_the_bytes_parsed(tmp_path, monkeypatch):
    # the input is rewritten right after it is parsed: the record names the
    # bytes the run decomposed, not the file as it is when the digest is taken
    path = tmp_path / "signal.csv"
    write_columns_csv(str(path), {"y": np.random.default_rng(4).normal(size=64)})
    parsed = read_bytes(path)
    reader = csv.reader

    def parse_then_rewrite(*args, **kwargs):
        rows = list(reader(*args, **kwargs))
        write_columns_csv(str(path), {"y": np.zeros(64)})
        return iter(rows)

    monkeypatch.setattr(csv, "reader", parse_then_rewrite)
    assert run(["extract", path, "--mode", "pogs", "--period1", 8, "--m", 2,
                "--out", tmp_path / "out"]) == 0
    record = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert read_bytes(path) != parsed
    assert record["input"]["sha256"] == hashlib.sha256(parsed).hexdigest()


@pytest.mark.parametrize("command, flags, name, key, file_name", [
    ("generate", ["--n", 64], "truth.json", "signal", "signal.csv"),
    ("extract", ["--period1", 32, "--period2", 53, "--max-iter", 5], "manifest.json",
     "components", "components.csv"),
], ids=["generate", "extract"])
def test_record_holds_the_digest_of_the_bytes_written(generated, tmp_path, monkeypatch,
                                                      command, flags, name, key, file_name):
    # the output is changed right after it is renamed into place: the record
    # names the bytes the run wrote, not the file as it is when the record is made
    written = {}
    rename = os.replace

    def rename_then_change(src, dst):
        rename(src, dst)
        if os.path.basename(dst) == file_name:
            written[key] = read_bytes(dst)
            with open(dst, "ab") as fh:
                fh.write(b"0,0.0\n")

    inputs = [] if command == "generate" else [generated / "signal.csv"]
    monkeypatch.setattr(os, "replace", rename_then_change)
    out = tmp_path / "run"
    assert run([command, *inputs, *flags, "--out", out]) == 0
    record = json.loads((out / name).read_text(encoding="utf-8"))
    assert read_bytes(out / file_name) != written[key]
    assert record["outputs"][key] == {"path": str(out / file_name),
                                      "sha256": hashlib.sha256(written[key]).hexdigest()}


def test_console_entrypoint_help():
    import os, subprocess, sys
    from pathlib import Path

    import rtea

    # the child imports the same rtea as this process, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(rtea.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "rtea", "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "bench-eta" in proc.stdout


@pytest.mark.parametrize("command, flags", [
    ("generate", ["--n", 256]),
    ("extract", ["{signal}", "--config", "{config}"]),
    ("analyze", ["{signal}", "--fs", 1000]),
    ("bench-eta", ["{signal}", "--period1", 32, "--period2", 53, "--etas", "0.3,0.6"]),
], ids=["generate", "extract", "analyze", "bench-eta"])
def test_no_command_depends_on_the_locale_encoding(generated, tmp_path, command, flags):
    # a text-mode open without an encoding gives an EncodingWarning, here an error
    import subprocess, sys
    from pathlib import Path

    import rtea

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"period_samples": [32, 53]}), encoding="utf-8")
    files = {"signal": generated / "signal.csv", "config": config}
    args = [str(a).format(**files) for a in [command, *flags, "--out", tmp_path / "out"]]
    env = dict(os.environ, PYTHONPATH=str(Path(rtea.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "rtea", *args], env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    assert "EncodingWarning" not in proc.stderr


# ---------------------------------------------------------------------------
# fuzz: every command, with edge values in its flags, ends with a documented exit

# values at the edges of every numeric and text flag
EDGE = ["0", "-1", "1", "0.5", "1e-300", "5e-324", "1e300", "inf", "-inf", "nan", "",
        "abc", "100000000"]
# sizes are tiny, or so large that allocating them fails at once
SIZES = ["0", "-1", "1", "2", "64", "abc", str(10**18)]
SOLVE = {"--period1": EDGE, "--period2": EDGE, "--freq1": EDGE + ["6.25"],
         "--freq2": EDGE + ["3.7"], "--fs": EDGE + ["100"], "--n1": EDGE + ["2", "1,2"],
         "--m": EDGE + ["2", "1,3"], "--a0-fraction": EDGE + ["0.9"],
         "--penalty": EDGE + ["log", "rat", "abs"], "--max-iter": ["0", "-1", "1", "abc"],
         "--tol": EDGE + ["1e-3"]}
# each command's flags for a run that succeeds, and the values each flag
# may take instead: a valid alternative or an edge value
FUZZ = {
    "generate": ({"--n": "64", "--t1": "16", "--t2": "27"},
                 {"--t1": EDGE + ["40"], "--t2": EDGE, "--n": SIZES, "--sigma": EDGE,
                  "--seed": EDGE, "--transient-len": SIZES, "--jitter": EDGE + ["2"],
                  "--modulation-freq": EDGE + ["6"], "--fs": EDGE + ["100"]}),
    "extract": ({"--period1": "16", "--period2": "27", "--max-iter": "2"},
                {**SOLVE, "--mode": EDGE + ["pogs"], "--eta": EDGE + ["0", "0.95"],
                 "--lam": EDGE + ["0.2", "1e308"]}),
    "analyze": ({"--fs": "100"},
                {"--fs": EDGE, "--band": [f"{lo} {hi}" for lo in EDGE for hi in EDGE + ["40"]],
                 "--nfft": SIZES + ["512"], "--smooth-hz": EDGE + ["0.3"],
                 "--n-harmonics": EDGE, "--tol-hz": EDGE, "--max-peaks": EDGE}),
    "bench-eta": ({"--period1": "16", "--period2": "27", "--max-iter": "2"},
                  {**SOLVE, "--etas": EDGE + ["0.2,0.8", "0.5,1e-300"]}),
}
# the inputs each command may be given, by name; missing.csv is never written
FUZZ_INPUTS = {"generate": [None], "extract": ["signal", "components", "maxed", "missing"],
               "analyze": ["components", "signal", "huge", "maxed", "missing"],
               "bench-eta": ["signal", "components", "maxed", "missing"]}


@st.composite
def cli_runs(draw):
    """A command, its input (the first of its list half the time) and its
    flags: those of a run that succeeds, with up to two of them changed."""
    command = draw(st.sampled_from(list(FUZZ)))
    inputs = FUZZ_INPUTS[command]
    source = draw(st.one_of(st.just(inputs[0]), st.sampled_from(inputs)))
    base, choices = FUZZ[command]
    changed = draw(st.lists(st.sampled_from(list(choices)), max_size=2, unique=True))
    return command, source, {**base, **{f: draw(st.sampled_from(choices[f])) for f in changed}}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    mix = gen_mixture(n_samples=256, t1=16, t2=27, seed=0)
    index = np.arange(mix.y.size)
    write_columns_csv(str(root / "signal.csv"),
                      {"index": index, "y": mix.y, "x1_true": mix.x1, "x2_true": mix.x2})
    write_columns_csv(str(root / "components.csv"), {"index": index, "x1": mix.x1, "x2": mix.x2})
    # its squares overflow, and its rms must still come out finite
    write_columns_csv(str(root / "huge.csv"), {"index": index, "x1": 1e160 * mix.x1})
    # at the top of the double range: its noise estimate and spectrum overflow
    write_maxed(root / "maxed.csv")
    return root


@given(case=cli_runs())
# regression cases: an unbounded harmonic search (also through a huge
# tolerance), a numpy overflow warning at a tiny eta, an error blaming the
# concavity for a subnormal eta, an rms whose squares overflow, a bad
# second period found only after allocating a huge first train, a pogs
# weight whose start cost overflows, and a noise estimate and a spectrum
# that overflow
@example(case=("analyze", "components", {"--fs": "100", "--n-harmonics": "100000000"}))
@example(case=("analyze", "components", {"--fs": "100", "--n-harmonics": "100000000",
                                         "--tol-hz": "100000000"}))
@example(case=("extract", "signal", {"--period1": "16", "--period2": "27", "--max-iter": "2",
                                     "--eta": "1e-300"}))
@example(case=("extract", "signal", {"--period1": "16", "--period2": "27", "--max-iter": "2",
                                     "--eta": "5e-324"}))
@example(case=("bench-eta", "signal", {"--period1": "16", "--period2": "27", "--max-iter": "2",
                                       "--etas": "1e-300"}))
@example(case=("analyze", "huge", {"--fs": "100"}))
@example(case=("generate", None, {"--n": "1000000000000000000", "--t1": "16", "--t2": "nan"}))
@example(case=("extract", "signal", {"--mode": "pogs", "--period1": "16", "--period2": "27",
                                     "--max-iter": "2", "--lam": "1e308"}))
@example(case=("extract", "maxed", {"--period1": "16", "--period2": "27", "--max-iter": "2"}))
@example(case=("extract", "maxed", {"--mode": "pogs", "--period1": "16", "--period2": "27",
                                    "--max-iter": "2"}))
@example(case=("analyze", "maxed", {"--fs": "100"}))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_fuzzed_flags_exit_with_a_documented_code(fuzz_inputs, case):
    command, source, flags = case
    argv = [command]
    if source is not None:
        argv.append(str(fuzz_inputs / f"{source}.csv"))
    for flag, value in flags.items():
        argv += [flag, *value.split(" ")] if flag == "--band" else [f"{flag}={value}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            code = exit_code([*argv, "--out", out])
        assert code in (0, 2, 3, 4), argv
        if code:
            assert not os.path.exists(out), argv
        else:
            for name in os.listdir(out):
                if name.endswith(".json"):
                    with open(os.path.join(out, name), encoding="utf-8") as fh:
                        strict_json(fh.read())
