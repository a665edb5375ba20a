import argparse
import json
import os
import re
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest

from chainsde import config, integrator, runner
from chainsde.cli import _resolve_config, build_parser, main
from chainsde.config import COMMANDS, ExperimentConfig, parse_config_file
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-step-scale"])
    def test_non_finite_tolerance_exits_2(self, tmp_path, capsys, flag, value):
        # a nan tolerance would fail every bound check and read as a broken
        # invariant (exit 1); it is a configuration error instead
        out = tmp_path / "o"
        code = main(["bounds", "--band-n", "4", "--level", "6", "--ensemble", "4",
                     flag, value, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("chainsde: config error:")
        assert flag[2:].replace("-", "_") in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--initial-y", "0"],
        ["simulate", "--level", "30"],
        ["simulate", "--band-n", "4", "--origin-eps", "0.5"],
        ["simulate", "--level", "4", "--trace-stride", "3"],
        ["couple", "--perturbation", "wobble:3"],
        ["couple", "--perturbation", "resolution:4,30"],
        ["converge", "--levels", "4,6", "--level-ref", "30"],
        ["bounds", "--initial-x", "0.5"],
        ["bounds", "--chain-order", "2"],
    ], ids=" ".join)
    def test_rejected_before_output_dir(self, tmp_path, capsys, argv):
        # the config builds what the run builds, so a value the run would
        # reject fails before the output directory is made
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("chainsde: config error:")
        assert not out.exists()

    @pytest.mark.parametrize("argv, names", [
        (["excursions", "--level", "20", "--ensemble", "256"], ("level", "ensemble")),
        (["bounds", "--band-n", "540", "--level", "4", "--ensemble", "2"], ("band_n",)),
    ], ids=["excursions-over-budget", "bounds-window-underflow"])
    def test_rejected_naming_the_field(self, tmp_path, capsys, argv, names):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chainsde: config error:")
        assert all(name in err for name in names)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--level", "7"],
        ["simulate", "--level", "7", "--trace-stride", "2"],
        ["excursions", "--level", "7"],
        ["bounds", "--level", "7"],
        ["converge", "--levels", "4,6", "--level-ref", "9"],
        ["couple", "--perturbation", "resolution:8,5", "--level", "5"],
        ["couple", "--perturbation", "jitter:1e-3", "--level", "11"],
    ], ids=" ".join)
    def test_memory_gate_is_the_run_budget(self, tmp_path, monkeypatch, capsys, argv):
        # the gate admits a budget exactly when every solve of the run fits it
        argv = [*argv, "--ensemble", "3"]
        seen = []
        block_bytes = integrator._block_bytes

        def recorded(*args):
            seen.append(block_bytes(*args))
            return seen[-1]

        monkeypatch.setattr(integrator, "_block_bytes", recorded)
        assert main([*argv, "--out", str(tmp_path / "run")]) in (0, 1)
        monkeypatch.setattr(config, "_BLOCK_BUDGET", max(seen))
        assert main([*argv, "--out", str(tmp_path / "fits")]) in (0, 1)
        monkeypatch.setattr(config, "_BLOCK_BUDGET", max(seen) - 1)
        assert main([*argv, "--out", str(tmp_path / "over")]) == 2
        assert "ensemble 3" in capsys.readouterr().err
        assert not (tmp_path / "over").exists()

    def test_gate_checks_only_what_the_command_builds(self, tmp_path):
        # bounds solves on its own window config, which takes no origin_eps
        argv = ["bounds", "--band-n", "4", "--origin-eps", "0.5", "--level", "6",
                "--ensemble", "2"]
        assert main([*argv, "--out", str(tmp_path / "o")]) != 2


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

    def test_failed_dump_leaves_no_temporary_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o"
        save_path = runner.save_path
        calls = []

        def failing_save_path(path, fh):
            calls.append(path)
            if len(calls) == 2:
                fh.write(b"BPATH1")  # a partial dump
                raise OSError(28, "No space left on device")
            save_path(path, fh)

        monkeypatch.setattr(runner, "save_path", failing_save_path)
        code = main(["simulate", "--level", "4", "--band-n", "6", "--ensemble", "3",
                     "--dump-paths", "--out", str(out)])
        assert code == 2
        assert len(calls) == 2
        assert list(out.rglob("*.tmp")) == []
        assert not (out / "summary.json").exists()
        assert [p.name for p in (out / "paths").iterdir()] == ["path_00000.bpath"]

    def test_unwritable_trace_leaves_no_temporary_file(self, tmp_path):
        out = tmp_path / "out"
        (out / "trace.csv").mkdir(parents=True)
        assert main(self._ARGS + ["--out", str(out)]) == 2
        assert os.listdir(out) == ["trace.csv"]


# The flags every subcommand accepted before the flags were derived from
# the ExperimentConfig fields; the derived surface must stay exactly this.
_FLAGS = {
    "-h", "--help", "--config", "--alpha", "--chain-order", "--initial-x", "--initial-y",
    "--initial-z", "--band-n", "--level", "--levels", "--level-ref", "--horizon",
    "--ensemble", "--seed", "--perturbation", "--scheme", "--zero-noise", "--no-zero-noise",
    "--origin-eps", "--workers", "--out", "--trace-stride", "--tol-abs", "--tol-step-scale",
    "--dump-paths", "--no-dump-paths",
}

# One valid, non-default value per field, as config-file text.
_SAMPLES = {
    "alpha": "0.8", "chain_order": "2", "initial_x": "0.25", "initial_y": "-0.5",
    "initial_z": "0.5", "band_n": "3", "level": "7", "levels": "6,8", "level_ref": "11",
    "horizon": "0.5", "ensemble": "9", "seed": "0x1f", "perturbation": "jitter:1e-3",
    "scheme": "plain-em", "zero_noise": "true", "origin_eps": "1e-3", "workers": "2",
    "out_dir": "elsewhere", "trace_stride": "4", "tol_abs": "1e-9", "tol_step_scale": "2.5",
    "dump_paths": "true",
}

_TYPES = get_type_hints(ExperimentConfig)


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _field_actions(sub):
    return {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}


class TestCliSurface:
    def test_commands_and_flags_unchanged(self):
        subs = _subparsers()
        assert list(subs) == ["simulate", "couple", "bounds", "excursions", "converge"]
        assert list(subs) == list(COMMANDS)
        assert set(runner._COMMANDS) == set(COMMANDS)
        for sub in subs.values():
            assert set(sub._option_string_actions) == _FLAGS

    def test_one_flag_per_field(self):
        names = [f.name for f in fields(ExperimentConfig) if f.name != "command"]
        for sub in _subparsers().values():
            actions = [a for a in sub._actions if a.dest not in ("help", "config")]
            assert sorted(a.dest for a in actions) == sorted(names)

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)[1:]])
    def test_file_and_flag_values_agree(self, tmp_path, name):
        assert set(_SAMPLES) == {f.name for f in fields(ExperimentConfig)[1:]}
        text = _SAMPLES[name]
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"{name} = {text}\n")
        flag = _field_actions(_subparsers()["simulate"])[name].option_strings[0]
        parser = build_parser()
        from_file = _resolve_config(parser.parse_args(["simulate", "--config", str(cfg_file)]))
        argv = [flag] if _TYPES[name] is bool else [flag, text]
        from_flag = _resolve_config(parser.parse_args(["simulate", *argv]))
        assert from_file == from_flag
        assert from_flag != ExperimentConfig(command="simulate")

    @pytest.mark.parametrize(
        "name, value",
        [(name, "fast") for name, hint in _TYPES.items()
         if hint not in (bool, str) or name == "scheme"]
        + [("level", "010"), ("levels", "6,x")],
    )
    def test_bad_flag_value_exits_2_naming_field(self, tmp_path, capsys, name, value):
        flag = _field_actions(_subparsers()["simulate"])[name].option_strings[0]
        out = tmp_path / "o"
        assert main(["simulate", flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chainsde: config error:")
        assert re.search(rf"\b{name}\b", err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--initial-x", "-1e-3"), ("--initial-y", "-2.5E+1"), ("--initial-z", "-.5e-300"),
        ("--initial-x", "-7"),
    ])
    def test_spaced_negative_value_is_the_equals_form(self, flag, value):
        parser = build_parser()
        spaced = _resolve_config(parser.parse_args(["simulate", flag, value]))
        joined = _resolve_config(parser.parse_args(["simulate", f"{flag}={value}"]))
        assert spaced == joined
        assert spaced != ExperimentConfig(command="simulate")

    @pytest.mark.parametrize("flag, name", [
        ("--initial-x", "initial_x"), ("--initial-y", "initial_y"), ("--initial-z", "initial_z"),
    ])
    def test_minus_inf_start_exits_2_naming_field(self, tmp_path, capsys, flag, name):
        out = tmp_path / "o"
        assert main(["simulate", flag, "-inf", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chainsde: config error:")
        assert re.search(rf"\b{name}\b", err)
        assert not out.exists()

    def test_missing_flag_value_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--initial-x", "--level", "3"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_readme_names_every_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Configuration", 1)[1]
        block = section.split("```", 2)[1]
        listed = {line.split()[0] for line in block.splitlines() if line.strip()}
        assert {f.name for f in fields(ExperimentConfig)} <= listed


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

    def test_couple_every_pair_stopped_at_t0(self, tmp_path):
        # a start outside the band 2^1 stops every pair at t = 0: the
        # divergence trace has one point and no kernel-check window
        out = tmp_path / "o"
        code = main(
            ["couple", "--band-n", "1", "--initial-y", "3", "--level", "6", "--ensemble", "5",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        assert read_summary(out)["kernel_check"] is None
        header, rows = read_trace(out)
        assert len(rows) == 1 and float(rows[0][header.index("time")]) == 0.0

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
