import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import hetbandit
import hetbandit.cli as cli_mod
import hetbandit.runner as runner_mod
from hetbandit import Environment, ExperimentConfig, build_preset, run_suite
from hetbandit.cli import _build_experiment_config, build_parser, main, parse_config_file
from hetbandit.presets import PRESET_DEFAULTS, ConfigError
from hetbandit.runner import CSV_HEADER, design_table_rows, emit_design_table


def tiny_config(**kw):
    defaults = dict(
        preset="example2",
        replications=2,
        base_seed=3,
        delta=0.05,
        algorithms=("hrage", "rage"),
        overrides={"c_prime": 1.0},
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def tiny_varest_config(**kw):
    defaults = dict(
        preset="varest",
        replications=1,
        base_seed=0,
        algorithms=("head", "separate_arm"),
        overrides={"d": 3, "n_sphere": 20, "n_small": 20, "budgets": (600, 1200)},
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def strip_wall(rows):
    return ["," .join(r.split(",")[:-1]) for r in rows]


class TestRunSuite:
    def test_rows_and_summary(self):
        rows, failed = run_suite(tiny_config())
        assert not failed
        data = [r for r in rows if ",summary," not in r]
        summary = [r for r in rows if ",summary," in r]
        assert len(data) == 4  # 2 seeds x 2 algorithms
        assert len(summary) == 4  # mean + sem per algorithm
        for row in data:
            preset, algo, seed, metric, value, correct, rounds, burn, wall = row.split(",")
            assert preset == "example2"
            assert algo in ("hrage", "rage")
            assert metric == "total_pulls"
            assert correct in ("true", "false")
            assert int(rounds) > 0
            assert int(wall) >= 0

    def test_summary_recomputable(self):
        rows, _ = run_suite(tiny_config())
        values = {}
        for row in rows:
            fields = row.split(",")
            if fields[2] == "summary":
                continue
            values.setdefault(fields[1], []).append(float(fields[4]))
        for row in rows:
            fields = row.split(",")
            if fields[2] != "summary":
                continue
            algo, metric, reported = fields[1], fields[3], float(fields[4])
            vals = np.array(values[algo])
            if metric.endswith(":mean"):
                assert reported == pytest.approx(vals.mean(), rel=1e-9)
            else:
                expected = vals.std(ddof=1) / math.sqrt(len(vals))
                assert reported == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_reproducible_bodies_modulo_wall(self):
        rows_a, _ = run_suite(tiny_config())
        rows_b, _ = run_suite(tiny_config())
        assert strip_wall(rows_a) == strip_wall(rows_b)

    def test_worker_pool_matches_serial(self):
        serial, _ = run_suite(tiny_config())
        parallel, _ = run_suite(tiny_config(jobs=2))
        assert strip_wall(serial) == strip_wall(parallel)

    @pytest.mark.parametrize(
        "patched, config, failing, other",
        [
            ("hrage_run", tiny_config(), "hrage", "rage"),
            ("head_estimate", tiny_varest_config(), "head", "separate_arm"),
        ],
        ids=["ident", "varest"],
    )
    def test_failures_become_rows(self, monkeypatch, patched, config, failing, other):
        def boom(*args, **kwargs):
            from hetbandit.core import HetBanditError

            raise HetBanditError("synthetic failure")

        monkeypatch.setattr(runner_mod, patched, boom)
        rows, failed = run_suite(config)
        assert failed
        error_rows = [r for r in rows if ",error:HetBanditError," in r]
        assert len(error_rows) == 2  # one per seed, or one per budget
        assert all(f",{failing}," in r for r in error_rows)
        other_rows = [r for r in rows if f",{other}," in r and ",summary," not in r]
        assert len(other_rows) == 2  # the other algorithm still ran

    @pytest.mark.parametrize(
        "config, builds",
        [
            (tiny_config(algorithms=("rage",)), 1),
            (tiny_varest_config(replications=2, algorithms=("separate_arm",)), 2),
        ],
        ids=["example2", "varest"],
    )
    def test_fixed_arm_presets_built_once(self, monkeypatch, config, builds):
        calls = []

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build_preset(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "build_preset", counting_build)
        run_suite(config)
        assert len(calls) == builds

    def test_summary_uses_unrounded_values(self, monkeypatch):
        values = iter([1.0, 1.0 + 4e-11])
        monkeypatch.setattr(runner_mod, "mae", lambda est, inst: next(values))
        config = tiny_varest_config(
            replications=2,
            algorithms=("separate_arm",),
            overrides={"d": 3, "n_sphere": 20, "n_small": 20, "budgets": (600,)},
        )
        rows, _ = run_suite(config)
        sem = [r for r in rows if ",summary,mae@600:sem," in r]
        assert len(sem) == 1
        assert float(sem[0].split(",")[4]) == pytest.approx(2.0e-11, rel=1e-6)

    def test_unknown_algorithm_is_a_config_error(self):
        # Rejected when the config is built, before any preset is.
        with pytest.raises(ConfigError, match="mystery"):
            tiny_config(algorithms=("hrage", "mystery"))
        with pytest.raises(ConfigError, match="mystery"):
            tiny_varest_config(algorithms=("mystery",))

    @pytest.mark.parametrize("config, subset", [
        (tiny_config(algorithms=None), ("rage", "hrage")),
        (tiny_config(algorithms=None), ("oracle-hom",)),
        (tiny_varest_config(algorithms=None), ("separate_arm", "head")),
        (tiny_varest_config(algorithms=None), ("uniform",)),
    ], ids=["example2-reordered", "example2-one", "varest-reordered", "varest-one"])
    def test_algorithm_subset_keeps_rows(self, config, subset):
        # A cell's noise stream follows its algorithm, not the list it came in.
        full, _ = run_suite(config)
        part, _ = run_suite(dataclasses.replace(config, algorithms=subset))
        kept = [r for r in full if r.split(",")[1] in subset]
        assert strip_wall(part) == strip_wall(kept)

    def test_varest_suite_rows(self):
        cfg = ExperimentConfig(
            preset="varest",
            replications=1,
            base_seed=0,
            algorithms=("separate_arm",),
            overrides={"d": 3, "n_sphere": 20, "n_small": 20, "budgets": (600, 1200)},
        )
        rows, failed = run_suite(cfg)
        assert not failed
        data = [r for r in rows if ",summary," not in r]
        metrics = {r.split(",")[3] for r in data}
        assert metrics == {"mae@600", "mae@1200"}

    def test_csv_file_written(self, tmp_path):
        out = tmp_path / "results.csv"
        cfg = tiny_config(output_path=str(out))
        run_suite(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == CSV_HEADER
        assert len(lines) > 2


class TestBenchProbeNames:
    def test_probe_wraps_names_that_exist(self):
        path = Path(__file__).resolve().parents[1] / "bench" / "probe.py"
        spec = importlib.util.spec_from_file_location("bench_probe", path)
        probe = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(probe)
        entries = [(name, users) for _layer, name, users in probe.SPANNED]
        entries.append(probe.COUNTED)
        for name, users in entries:
            for user in users:
                assert hasattr(getattr(hetbandit, user), name), f"hetbandit.{user}.{name}"
        for method in probe.ENV_METHODS:
            assert hasattr(Environment, method), f"Environment.{method}"


class TestDesignTable:
    def test_rows_per_source_and_arm(self):
        bundle = build_preset(ExperimentConfig(preset="intro", overrides={"kappa": 20.0}))
        rows = design_table_rows(bundle)
        assert len(rows) == 2 * bundle.instance.n_arms
        truth_weights = [float(r.split(",")[3]) for r in rows if ",truth," in r]
        assert sum(truth_weights) == pytest.approx(1.0, abs=1e-6)

    def test_emit_to_file(self, tmp_path):
        bundle = build_preset(ExperimentConfig(preset="example2"))
        out = tmp_path / "design.csv"
        emit_design_table(bundle, str(out))
        lines = out.read_text().splitlines()
        assert lines[1] == "preset,sigma_source,arm_index,weight,sigma_sq"
        assert len(lines) == 2 + 2 * bundle.instance.n_arms

    def test_rejects_varest_bundle(self):
        bundle = build_preset(ExperimentConfig(
            preset="varest",
            overrides={"d": 3, "n_sphere": 20, "n_small": 20},
        ))
        with pytest.raises(ConfigError):
            design_table_rows(bundle)


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            """
            # experiment settings
            preset = example1
            reps = 4
            delta = 0.1
            d = 5          # preset parameter
            q = 0.3
            """
        )
        parsed = parse_config_file(str(cfg))
        assert parsed == {"preset": "example1", "reps": 4, "delta": 0.1, "d": 5, "q": 0.3}

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(cfg))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/file.cfg")


class TestCliMain:
    def test_complexity_command(self, capsys):
        code = main(["complexity", "--preset", "intro", "--kappa", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "psi_star" in out and "rho_star" in out and "sample_lower_bound" in out

    def test_complexity_of_one_target_exits_3(self, tmp_path, capsys):
        # A best-arm task with one target is valid, but has no complexity.
        path = tmp_path / "one_target.npz"
        np.savez(path, arms=np.eye(2), targets=[[1.0, 0.0]], theta_star=[1.0, 0.0], sigma_star=np.eye(2))
        code = main(["complexity", "--preset", "custom", "--set", f"instance_file={path}"])
        assert code == 3
        assert "one target" in capsys.readouterr().err

    def test_design_command(self, tmp_path, capsys):
        out = tmp_path / "design.csv"
        code = main(["design", "--preset", "intro", "--kappa", "20", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_run_command(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main([
            "run", "--preset", "example2", "--reps", "1", "--seed", "1",
            "--algorithms", "rage", "--out", str(out),
        ])
        assert code == 0
        body = out.read_text()
        assert "rage" in body and "total_pulls" in body

    def test_config_file_plus_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = intro\nkappa = 5\n")
        code = main(["complexity", "--config", str(cfg), "--kappa", "2"])
        assert code == 0
        assert "kappa             2" in capsys.readouterr().out

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["complexity", "--preset", "mystery"]) == 2

    def test_missing_out_exits_2(self, capsys):
        assert main(["run", "--preset", "example2"]) == 2

    def test_bad_set_syntax_exits_2(self, capsys):
        assert main(["complexity", "--preset", "intro", "--set", "oops"]) == 2

    def test_bad_flag_exits_2(self, capsys):
        assert main(["run", "--bogus-flag"]) == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        assert main(["run", "--preset", "example2", "--reps", "1", "--seed", "-1", "--out", out]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = example2\nbase_seed = -1\n")
        assert main(["run", "--config", str(cfg), "--reps", "1", "--out", out]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config_text", [
        (["complexity", "--preset", "example2", "--set", "omgea=0.3"], None),
        (["complexity", "--config", "{cfg}"], "preset = example2\nrepz = 3\n"),
        (["complexity", "--kappa", "5", "--preset", "example2"], None),
        (["run", "--preset", "example2", "--set", "fw_tl=0.5", "--out", "{out}"], None),
    ], ids=["set", "config-file", "kappa-off-intro", "run-setting"])
    def test_unknown_setting_exits_2(self, tmp_path, capsys, argv, config_text):
        cfg = tmp_path / "run.cfg"
        if config_text is not None:
            cfg.write_text(config_text)
        argv = [a.format(cfg=cfg, out=tmp_path / "res.csv") for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "unknown setting" in err
        assert "Traceback" not in err
        assert not (tmp_path / "res.csv").exists()

    @pytest.mark.parametrize("argv, key", [
        (["design", "--preset", "example2", "--set", "fw_tol=abc", "--out", "{out}"], "fw_tol"),
        (["complexity", "--preset", "example2", "--set", "max_rounds=-4"], "max_rounds"),
        (["run", "--preset", "varest", "--set", "c_prime=2", "--out", "{out}"], "c_prime"),
        (["run", "--preset", "varest", "--set", "max_rounds=3", "--out", "{out}"], "max_rounds"),
        (["run", "--preset", "varest", "--set", "fw_tol=0.3", "--out", "{out}"], "fw_tol"),
        (["design", "--config", "{cfg}", "--out", "{out}"], "algorithms"),
        (["design", "--preset", "example2", "--reps", "9", "--jobs", "4", "--seed", "3", "--out", "{out}"],
         "replications, base_seed, jobs"),
        (["complexity", "--preset", "example2", "--seed", "3"], "base_seed"),
    ], ids=["design-fw_tol", "complexity-max_rounds", "varest-c_prime", "varest-max_rounds",
            "varest-fw_tol", "design-algorithms", "design-reps-jobs-seed", "complexity-seed"])
    def test_setting_not_read_exits_2(self, tmp_path, capsys, argv, key):
        # A setting is accepted only by the command and preset that read it.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = example2\nalgorithms = 'rage'\n")
        argv = [a.format(cfg=cfg, out=tmp_path / "res.csv") for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err
        assert not (tmp_path / "res.csv").exists()

    @pytest.mark.parametrize("command", ["design", "complexity"])
    @pytest.mark.parametrize("keys", ["reps = 9\nseed = 3\njobs = 4\n",
                                      "replications = 9\nbase_seed = 3\njobs = 4\n"], ids=["short", "long"])
    def test_replication_file_keys_not_read_exit_2(self, tmp_path, capsys, command, keys):
        # Only run reads the replication settings, from a flag or a file key alike.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = example2\n" + keys)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "res.csv")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "replications, base_seed, jobs" in err
        assert not (tmp_path / "res.csv").exists()

    def test_unknown_algorithm_builds_no_preset(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build_preset(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "build_preset", counting_build)
        monkeypatch.setattr(cli_mod, "build_preset", counting_build)
        cfg = tmp_path / "run.cfg"
        cfg.write_text('preset = varest\nalgorithms = "mystery"\n')
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res.csv")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "mystery" in err
        assert calls == []

    @pytest.mark.parametrize("command", ["run", "design", "complexity"])
    def test_flags_add_no_defaults(self, command):
        args = build_parser().parse_args([command, "--preset", "example2"])
        assert _build_experiment_config(args) == ExperimentConfig("example2", command=command)

    def test_config_file_keys_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = example2\nreplications = 3\nbase_seed = 4\ndelta = 0.1\n"
                       "output_path = 'a.csv'\njobs = 2\nalgorithms = 'rage,hrage'\nd = 4\n")
        args = build_parser().parse_args(["run", "--config", str(cfg)])
        assert _build_experiment_config(args) == ExperimentConfig(
            "example2", replications=3, base_seed=4, delta=0.1, output_path="a.csv", jobs=2,
            algorithms=("rage", "hrage"), overrides={"d": 4})
        # Flags win over the short file keys, and --set over --kappa.
        cfg.write_text("preset = example2\nreps = 3\nseed = 4\nout = 'a.csv'\nkappa = 2\n")
        args = build_parser().parse_args([
            "run", "--config", str(cfg), "--preset", "intro", "--reps", "5", "--seed", "6", "--delta", "0.2",
            "--out", "b.csv", "--jobs", "1", "--algorithms", "rage", "--kappa", "3", "--set", "kappa=4",
        ])
        assert _build_experiment_config(args) == ExperimentConfig(
            "intro", replications=5, base_seed=6, delta=0.2, output_path="b.csv", jobs=1,
            algorithms=("rage",), overrides={"kappa": 4})

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("setting", [
        "c_prime=abc", "max_rounds=abc", "max_rounds=0", "max_rounds=-1", "fw_tol=0", "fw_tol=-1",
    ])
    def test_bad_run_setting_exits_2(self, tmp_path, capsys, setting, jobs):
        code = main([
            "run", "--preset", "example2", "--reps", "2", "--jobs", jobs, "--algorithms", "rage",
            "--set", setting, "--out", str(tmp_path / "res.csv"),
        ])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", sorted(PRESET_DEFAULTS))
    @pytest.mark.parametrize("command", ["design", "complexity"])
    def test_every_preset_exits_cleanly(self, tmp_path, capsys, command, preset):
        # Presets the command cannot serve (varest, custom without a file)
        # are configuration errors, never a crash.
        code = main([command, "--preset", preset, "--out", str(tmp_path / "design.csv")])
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_run_failure_exits_3(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            from hetbandit.core import HetBanditError

            raise HetBanditError("synthetic")

        monkeypatch.setattr(runner_mod, "rage_run", boom)
        out = tmp_path / "res.csv"
        code = main([
            "run", "--preset", "example2", "--reps", "1",
            "--algorithms", "rage", "--out", str(out),
        ])
        assert code == 3
        assert out.exists()
