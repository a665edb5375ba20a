import json
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from chainsde import runner
from chainsde.cli import main
from chainsde.config import ExperimentConfig, parse_config_file
from chainsde.errors import ConfigError
from chainsde.noise import load_path
from chainsde.runner import parse_perturbation
from chainsde.coupling import InitJitter, ResolutionSplit, SchemeSplit


def read_summary(out_dir):
    with open(out_dir / "summary.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_trace(out_dir):
    with open(out_dir / "trace.csv", "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestConfig:
    def test_file_parsing_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# demo config\ncommand = bounds\nalpha = 0.85\nband_n = 3\nlevel = 9\n"
            "ensemble = 5\nlevels = 6, 8\n"
        )
        mapping = parse_config_file(str(cfg_file))
        assert mapping["alpha"] == "0.85"
        cfg = ExperimentConfig.from_mapping({**mapping})
        assert cfg.alpha == 0.85 and cfg.levels == (6, 8)

    def test_round_trip(self):
        cfg = ExperimentConfig(command="couple", alpha=0.8, levels=(4, 6), origin_eps=None)
        assert ExperimentConfig.from_mapping(cfg.to_mapping()) == cfg

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="alpha_max"):
            ExperimentConfig.from_mapping({"command": "simulate", "alpha_max": "1"})

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="alpha"):
            ExperimentConfig.from_mapping({"command": "simulate", "alpha": "fast"})
        with pytest.raises(ConfigError, match="ensemble"):
            ExperimentConfig(command="simulate", ensemble=0)

    def test_perturbation_parsing(self):
        assert parse_perturbation("jitter:1e-3") == InitJitter(1e-3)
        assert parse_perturbation("resolution:10,14") == ResolutionSplit(10, 14)
        assert parse_perturbation("scheme") == SchemeSplit()
        with pytest.raises(ConfigError, match="perturbation"):
            parse_perturbation("wobble:3")
        with pytest.raises(ConfigError, match="perturbation"):
            parse_perturbation("resolution:10")


class TestExitCodes:
    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("alpha == 0.9 extra\nnot a line\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_key_exits_2_and_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("alhpa = 0.9\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "alhpa" in capsys.readouterr().err

    def test_command_mismatch(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("command = couple\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unwritable_trace_exits_2(self, tmp_path, capsys):
        # an I/O failure is a runtime error, not a failed invariant check
        out = tmp_path / "out"
        (out / "trace.csv").mkdir(parents=True)
        code = main(["simulate", "--level", "4", "--ensemble", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("chainsde: error:") and err.count("\n") == 1
        assert "trace.csv" in err

    def test_killed_worker_exits_2(self, tmp_path, monkeypatch, capsys):
        # a worker lost to the operating system is a runtime error, not a
        # failed invariant check
        def broken(fn, tasks, workers):
            raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        monkeypatch.setattr(runner, "_run_tasks", broken)
        code = main(["simulate", "--level", "4", "--ensemble", "2", "--workers", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("chainsde: error:") and err.count("\n") == 1
        assert "BrokenProcessPool" in err

    def test_unexpected_error_exits_2(self, tmp_path, monkeypatch, capsys):
        # any uncaught exception is a runtime error, not a failed invariant check
        def broken(config, seeds, over_chunks, out_dir):
            raise RuntimeError("a command body failed")

        monkeypatch.setitem(runner._COMMANDS, "simulate", broken)
        code = main(["simulate", "--level", "4", "--ensemble", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "chainsde: error: RuntimeError: a command body failed\n"

    def test_inconsistent_origin_eps(self, tmp_path):
        code = main(
            ["simulate", "--band-n", "4", "--origin-eps", "0.5",
             "--ensemble", "2", "--level", "4", "--out", str(tmp_path / "o")]
        )
        assert code == 2


class TestAtomicOutputs:
    _ARGS = ["simulate", "--level", "4", "--ensemble", "2", "--band-n", "6"]

    @pytest.mark.parametrize("fail_at", ["summary_write", "summary_move"])
    def test_failed_run_leaves_no_stale_summary(self, tmp_path, monkeypatch, capsys, fail_at):
        out = tmp_path / "o"
        assert main(self._ARGS + ["--seed", "1", "--out", str(out)]) == 0
        old_summary = (out / "summary.json").read_bytes()
        old_trace = (out / "trace.csv").read_bytes()

        if fail_at == "summary_write":
            def write_summary(path, payload):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(runner, "_write_summary", write_summary)
        else:
            replace = os.replace

            def failing_replace(src, dst):
                if Path(dst).name == "summary.json":
                    raise OSError(28, "No space left on device")
                replace(src, dst)

            monkeypatch.setattr(runner.os, "replace", failing_replace)
        code = main(self._ARGS + ["--seed", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("chainsde: error:") and err.count("\n") == 1

        trace = (out / "trace.csv").read_bytes()
        if fail_at == "summary_write":
            # nothing was moved: the earlier pair stands as it was
            assert trace == old_trace
            assert (out / "summary.json").read_bytes() == old_summary
        else:
            # the new trace is in place, and the old summary is gone
            assert trace != old_trace
            assert not (out / "summary.json").exists()
        assert set(os.listdir(out)) <= {"summary.json", "trace.csv"}

    def test_dump_paths_rerun_replaces_earlier_dumps(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o"
        dump = ["simulate", "--level", "4", "--band-n", "6", "--dump-paths", "--out", str(out)]
        assert main(dump + ["--ensemble", "3"]) == 0
        assert main(dump + ["--ensemble", "2"]) == 0
        assert read_summary(out)["n_paths"] == 2
        assert sorted(p.name for p in (out / "paths").iterdir()) == [
            "path_00000.bpath", "path_00001.bpath"
        ]

        def save_path(path, fh):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(runner, "save_path", save_path)
        assert main(dump + ["--ensemble", "2"]) == 2
        assert not (out / "summary.json").exists()

    def test_unwritable_trace_leaves_no_temporary_file(self, tmp_path):
        out = tmp_path / "out"
        (out / "trace.csv").mkdir(parents=True)
        assert main(self._ARGS + ["--out", str(out)]) == 2
        assert os.listdir(out) == ["trace.csv"]


class TestCommands:
    def test_couple_null_jitter(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["couple", "--perturbation", "jitter:0", "--level", "8", "--ensemble", "8",
             "--horizon", "0.5", "--band-n", "6", "--out", str(out)]
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["checks"]["null_coupling_identical"] is True
        assert summary["terminal_D"] == 0.0
        header, rows = read_trace(out)
        d_col = header.index("D")
        assert all(float(row[d_col]) == 0.0 for row in rows)

    def test_bounds_zero_noise_case_i(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["bounds", "--zero-noise", "--band-n", "3", "--initial-y", "1.0",
             "--level", "10", "--ensemble", "4", "--out", str(out)]
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["case_label"] == "I"
        assert all(rate == 1.0 for rate in summary["pass_rates"].values())
        header, rows = read_trace(out)
        margin_col = header.index("margin")
        assert all(float(row[margin_col]) >= 0.0 for row in rows)

    def test_bounds_exit_1_when_tolerance_removed(self, tmp_path):
        # plain Euler undershoots X = t^2/2, so the quadratic case bound
        # fails deterministically once the grid-step allowance is off
        out = tmp_path / "o"
        code = main(
            ["bounds", "--zero-noise", "--scheme", "plain-em", "--band-n", "1",
             "--initial-y", "0.0", "--initial-z", "1.0", "--level", "8",
             "--ensemble", "2", "--tol-abs", "0", "--tol-step-scale", "0",
             "--out", str(out)]
        )
        assert code == 1
        summary = read_summary(out)
        assert summary["checks"]["all_bounds_hold"] is False
        assert summary["pass_rates"]["case_x_quadratic"] < 1.0
        # the default tolerance absorbs exactly this discretization lag
        code2 = main(
            ["bounds", "--zero-noise", "--scheme", "plain-em", "--band-n", "1",
             "--initial-y", "0.0", "--initial-z", "1.0", "--level", "8",
             "--ensemble", "2", "--out", str(out)]
        )
        assert code2 == 0

    def test_simulate_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["simulate", "--level", "6", "--ensemble", "3", "--horizon", "1.0",
             "--band-n", "6", "--dump-paths", "--out", str(out)]
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["n_paths"] == 3
        assert sum(summary["stop_counts"].values()) == 3
        header, rows = read_trace(out)
        assert header == ["path", "seed", "time", "x", "y", "z"]
        assert len(rows) == 3 * 65  # level 6, stride 1 (< 128 points)
        dumps = sorted((out / "paths").glob("*.bpath"))
        assert len(dumps) == 3
        with open(dumps[0], "rb") as fh:
            path = load_path(fh)
        assert path.level == 6 and path.horizon == 1.0

    def test_simulate_chain_order_two(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["simulate", "--chain-order", "2", "--level", "6", "--ensemble", "2",
             "--horizon", "1.0", "--band-n", "6", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_trace(out)
        assert rows[0][header.index("z")] == ""

    def test_bounds_rejects_chain_order_two(self, tmp_path):
        code = main(
            ["bounds", "--chain-order", "2", "--ensemble", "2",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_excursions_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["excursions", "--initial-y", "0.0", "--initial-z", "1.0", "--band-n", "3",
             "--level", "9", "--horizon", "4.0", "--ensemble", "10", "--out", str(out)]
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["total_hits"] >= 10  # at least the start on every path
        assert summary["checks"]["gaps_positive"] is True

    def test_converge_summary(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["converge", "--levels", "6,8", "--level-ref", "10", "--ensemble", "6",
             "--horizon", "0.5", "--band-n", "6", "--out", str(out)]
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["fitted_order"] is not None
        assert len(summary["mean_errors"]) == 2
        assert summary["checks"]["errors_nonincreasing_in_level"] is True

    def test_converge_zero_noise_exact(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["converge", "--zero-noise", "--levels", "6,8", "--level-ref", "10",
             "--ensemble", "4", "--horizon", "0.5", "--band-n", "6", "--out", str(out)]
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["exact"] is True
        assert summary["fitted_order"] is None


# Every ensemble exceeds runner.CHUNK paths, so each command folds at
# least two chunks, and with two workers they come from two processes.
_WORKER_CASES = {
    "simulate": ["simulate", "--level", "6", "--ensemble", "300", "--band-n", "6"],
    "couple": ["couple", "--perturbation", "jitter:1e-3", "--level", "7", "--ensemble", "300",
               "--horizon", "0.5", "--band-n", "6"],
    "bounds": ["bounds", "--band-n", "4", "--level", "8", "--ensemble", "300"],
    "excursions": ["excursions", "--initial-y", "0", "--initial-z", "1", "--band-n", "3",
                   "--level", "8", "--horizon", "4.0", "--ensemble", "300"],
    "converge": ["converge", "--levels", "5,7", "--level-ref", "9", "--ensemble", "600",
                 "--horizon", "0.5", "--band-n", "6"],
}


class TestReproducibility:
    @pytest.mark.parametrize("command", list(_WORKER_CASES))
    def test_rerun_and_worker_count_byte_identical(self, tmp_path, monkeypatch, command):
        out = tmp_path / "o"
        blobs = []
        for workers in ("1", "2", "1"):
            monkeypatch.setenv("CHAINSDE_WORKERS", workers)
            code = main(_WORKER_CASES[command] + ["--seed", "11", "--out", str(out)])
            assert code == 0
            blobs.append(
                ((out / "summary.json").read_bytes(), (out / "trace.csv").read_bytes())
            )
        assert blobs[0] == blobs[1] == blobs[2]

    def test_echoed_config_reparses_equal(self, tmp_path):
        out = tmp_path / "o"
        main(
            ["simulate", "--level", "5", "--ensemble", "2", "--horizon", "1.0",
             "--band-n", "6", "--out", str(out)]
        )
        summary = read_summary(out)
        echoed = ExperimentConfig.from_mapping(summary["config"])
        direct = ExperimentConfig(
            command="simulate", level=5, ensemble=2, horizon=1.0, band_n=6,
            out_dir=str(out),
        )
        assert echoed == direct
