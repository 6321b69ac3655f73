import json

import numpy as np
import pytest

from rtea.cli import main
from rtea.fileio import read_columns_csv, write_columns_csv


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
        assert manifest["params"]["t1"] == 32
        assert len(manifest["onsets1"]) == 32
        np.testing.assert_allclose(
            cols["y"], cols["x1_true"] + cols["x2_true"] + cols["w"]
        )

    def test_replayable(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["generate", "--seed", 3, "--out", out]) == 0
        assert read_bytes(a / "signal.csv") == read_bytes(b / "signal.csv")

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("mode", ["rtea", "mca", "pogs"])
    def test_overflowing_input_is_numerical_failure(self, tmp_path, capsys, mode):
        n = 256
        y = 1e200 * np.random.default_rng(0).normal(size=n)
        write_columns_csv(str(tmp_path / "huge.csv"), {"y": y})
        assert run(["extract", tmp_path / "huge.csv", *MODE_FLAGS[mode], "--period1", 16,
                    "--period2", 25, "--out", tmp_path / "x"]) == 3
        assert "cost became non-finite" in capsys.readouterr().err

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
            ("a0-fraction-1.5", ["--a0-fraction", 1.5], ("rtea", "mca", "pogs")),
        )
        for mode in modes
    ])
    def test_invalid_solver_settings_are_usage_errors(self, generated, tmp_path, mode, flags):
        # --a0-fraction is range-checked as it is parsed, the others by the solver
        assert exit_code(["extract", generated / "signal.csv", *MODE_FLAGS[mode],
                          "--period1", 32, "--period2", 53, *flags,
                          "--out", tmp_path / "x"]) == 2

    def test_lam_outside_pogs_is_usage_error(self, generated, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["extract", generated / "signal.csv", "--period1", 32, "--period2", 53,
                    "--lam", 50, "--out", out]) == 2
        assert "--lam applies to --mode pogs only" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_lam_is_usage_error(self, generated, tmp_path, capsys):
        assert run(["extract", generated / "signal.csv", "--mode", "pogs", "--period1", 32,
                    "--lam", "inf", "--out", tmp_path / "x"]) == 2
        assert "lam must be a finite nonnegative real, got inf" in capsys.readouterr().err

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


def extract_with_config(generated, tmp_path, cfg, *flags, name="cfg"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    return run(["extract", generated / "signal.csv", "--config", cfg_path, *flags,
                "--out", tmp_path / name])


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
        assert run(["bench-eta", out_gen / "signal.csv", "--period1", 32, "--period2", 53,
                    "--max-iter", 1, "--penalty", "log", "--tol", 0.1, "--out", out]) == 0
        record = json.loads((out / "eta_sweep.json").read_text())
        assert (record["penalty"], record["max_iter"], record["tol"]) == ("log", 1, 0.1)

    def test_requires_truth(self, tmp_path):
        n = 128
        write_columns_csv(str(tmp_path / "y.csv"), {"y": np.random.default_rng(0).normal(size=n)})
        assert run(["bench-eta", tmp_path / "y.csv", "--period1", 16,
                    "--period2", 25, "--out", tmp_path / "s"]) == 2


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
