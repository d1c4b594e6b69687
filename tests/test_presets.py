import dataclasses
import math

import numpy as np
import pytest

from hetbandit import ExperimentConfig, IdentTask, RunConfig, build_preset, psi_star
from hetbandit.presets import (IDENT_ALGORITHMS, PRESET_DEFAULTS, VAREST_ALGORITHMS, ConfigError, VarEstTask,
                               build_varest_instance)


def config(preset, **kw):
    return ExperimentConfig(preset=preset, **kw)


def top_two_gap(bundle):
    second, best = np.sort(bundle.instance.target_values())[-2:]
    return best - second


class TestExample1:
    def test_counts_and_shape(self):
        bundle = build_preset(config("example1"))
        inst = bundle.instance
        # two anchor axes + (d-2) scaled axes + (d-1) bent + two lift-support
        # vectors = 9 at the d=4 defaults
        assert inst.n_arms == 9
        assert inst.dimension == 4
        assert np.allclose(inst.sigma_star, np.eye(4))
        assert isinstance(bundle.task, IdentTask)

    def test_gap_is_bent_angle(self):
        bundle = build_preset(config("example1"))
        assert bundle.task.objective == "bai"
        assert top_two_gap(bundle) == pytest.approx(1 - math.cos(0.02))

    def test_overrides(self):
        bundle = build_preset(config("example1", overrides={"d": 5, "q": 0.3}))
        assert bundle.instance.dimension == 5
        assert bundle.instance.n_arms == 11
        # The scaled axes follow the two anchor axes.
        assert np.array_equal(bundle.instance.arms[2:5], 0.3 * np.eye(5)[2:5])

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_preset(config("example1", overrides={"d": 3}))
        with pytest.raises(ConfigError):
            build_preset(config("example1", overrides={"q": 1.5}))
        with pytest.raises(ConfigError):
            build_preset(config("example1", overrides={"omega": 0.0}))


class TestExample2:
    def test_counts_and_noise(self):
        bundle = build_preset(config("example2"))
        inst = bundle.instance
        assert inst.n_arms == 6  # e1, bent, e3, three diagonal pairs
        assert inst.dimension == 3
        assert np.allclose(np.diag(inst.sigma_star), [1.0, 0.2, 0.2])
        assert inst.kappa() == pytest.approx(5.0)

    def test_best_arm_is_first_axis(self):
        bundle = build_preset(config("example2"))
        assert bundle.task.best_index == 0


class TestMultivariate:
    def test_layout_encoding(self):
        bundle = build_preset(config("multivariate"))
        inst = bundle.instance
        assert inst.n_arms == 8 and inst.dimension == 7
        for row in inst.arms:
            assert row[0] == 1.0
            picks = row[1:4]
            pairs = row[4:]
            expected_pairs = [picks[0] * picks[1], picks[0] * picks[2], picks[1] * picks[2]]
            assert np.array_equal(pairs, expected_pairs)
            active = int(row.sum())
            k = int(picks.sum())
            assert active == 1 + k + k * (k - 1) // 2

    def test_best_layout(self):
        bundle = build_preset(config("multivariate"))
        values = bundle.instance.target_values()
        best = bundle.instance.arms[np.argmax(values)]
        assert np.array_equal(best[1:4], [0.0, 0.0, 1.0])
        assert bundle.task.objective == "bai"
        assert top_two_gap(bundle) == pytest.approx(0.005)


class TestIntro:
    def test_kappa_one_collapses_functionals(self):
        bundle = build_preset(config("intro", overrides={"kappa": 1.0}))
        report = psi_star(bundle.task, variances=bundle.variances)
        assert report.ratio == pytest.approx(1.0, abs=1e-6)

    def test_variance_override_shape(self):
        bundle = build_preset(config("intro", overrides={"kappa": 20.0}))
        assert np.array_equal(bundle.variances, [1.0, 20.0, 1.0])
        assert bundle.instance.kappa() == pytest.approx(20.0)

    def test_rejects_sub_unit_kappa(self):
        with pytest.raises(ConfigError):
            build_preset(config("intro", overrides={"kappa": 0.5}))


class TestVarEst:
    def test_sizes_and_noise_pattern(self):
        bundle = build_preset(config("varest"))
        inst = bundle.instance
        assert inst.n_arms == 500
        assert inst.dimension == 6
        assert isinstance(bundle.task, VarEstTask)
        assert bundle.task.budgets == (10_000, 20_000, 40_000, 80_000)
        norms = np.linalg.norm(inst.arms, axis=1)
        assert np.allclose(norms[:200], 1.0)
        assert np.allclose(norms[200:], 0.1)
        assert np.allclose(np.diag(inst.sigma_star), [1.0, 0.1, 1.0, 0.1, 1.0, 0.1])

    def test_instance_reproducible_per_seed(self):
        params = {"d": 4, "n_sphere": 20, "n_small": 30}
        one = build_varest_instance(params, seed=5)
        two = build_varest_instance(params, seed=5)
        other = build_varest_instance(params, seed=6)
        assert np.array_equal(one.arms, two.arms)
        assert not np.array_equal(one.arms, other.arms)

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            build_preset(config("varest", overrides={"budgets": (0,)}))
        # An empty ladder would run no cell and write a CSV with no rows.
        with pytest.raises(ConfigError, match="at least one budget"):
            build_preset(config("varest", overrides={"budgets": ()}))


class TestConfigPlumbing:
    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(preset="mystery")

    def test_aliases(self):
        assert ExperimentConfig(preset="IntroKappa").preset == "intro"
        assert ExperimentConfig(preset="varest-compare").preset == "varest"
        assert ExperimentConfig(preset="MultivariateTest").preset == "multivariate"

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(preset="intro", replications=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(preset="intro", delta=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(preset="intro", jobs=0)

    def test_custom_preset_roundtrip(self, tmp_path):
        arms = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
        path = tmp_path / "inst.npz"
        np.savez(path, arms=arms, theta_star=np.array([1.0, 0.0]), sigma_star=np.eye(2))
        bundle = build_preset(
            config("custom", overrides={"instance_file": str(path)})
        )
        assert bundle.instance.n_arms == 3
        assert bundle.task.objective == "bai"

    def test_custom_preset_needs_file(self):
        with pytest.raises(ConfigError):
            build_preset(config("custom"))

    @pytest.mark.parametrize("preset", sorted(PRESET_DEFAULTS))
    def test_override_keys(self, preset):
        # A preset accepts its own parameters and the run settings that the
        # command reads for it, nothing else: run reads all three on the
        # identification presets and none on varest; design and complexity
        # read none.
        run_settings = {"c_prime": 1.0, "fw_tol": 1e-2, "max_rounds": 40}
        assert sorted(run_settings) == sorted(f.name for f in dataclasses.fields(RunConfig))
        others = {key for defaults in PRESET_DEFAULTS.values() for key in defaults}
        for command in ("run", "design", "complexity"):
            read = set(run_settings) if command == "run" and preset != "varest" else set()
            for key, value in [*PRESET_DEFAULTS[preset].items(), *((k, run_settings[k]) for k in read)]:
                assert ExperimentConfig(preset, overrides={key: value}, command=command).overrides == {key: value}
            for key in ["omgea", "fw_tl", "repz", *sorted(others - set(PRESET_DEFAULTS[preset])),
                        *sorted(set(run_settings) - read)]:
                with pytest.raises(ConfigError, match=f"unknown setting {key} for {command}"):
                    ExperimentConfig(preset, overrides={key: 1}, command=command)

    def test_run_config_built_once(self):
        assert ExperimentConfig("example2").run_config == RunConfig(c_prime=1.0)
        cfg = ExperimentConfig("example2", overrides={"c_prime": "2", "fw_tol": 0.5, "max_rounds": 3.0})
        assert cfg.run_config == RunConfig(c_prime=2.0, fw_tol=0.5, max_rounds=3)
        for bad in ({"fw_tol": "abc"}, {"fw_tol": 0}, {"max_rounds": -4}, {"max_rounds": 2.5}, {"c_prime": None}):
            with pytest.raises(ConfigError, match="bad run setting"):
                ExperimentConfig("example2", overrides=bad)
        # Frozen, so the derived fields cannot go stale; replace derives them afresh.
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.algorithms = None
        assert dataclasses.replace(cfg, overrides={"max_rounds": 5}).run_config == RunConfig(c_prime=1.0, max_rounds=5)

    @pytest.mark.parametrize("preset, algorithms, match", [
        ("example2", ("hrage", "mystery"), "unknown algorithm mystery"),
        ("example2", ("head",), "unknown algorithm head"),
        ("varest", ("hrage",), "unknown algorithm hrage"),
        ("example2", "rage,rage", "repeated algorithm"),
        ("varest", ("head", "uniform", "head"), "repeated algorithm"),
    ])
    def test_algorithms_resolved_against_task(self, preset, algorithms, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(preset, algorithms=algorithms)

    @pytest.mark.parametrize("command", ["design", "complexity"])
    def test_algorithms_only_on_run(self, command):
        with pytest.raises(ConfigError, match="algorithms"):
            ExperimentConfig("example2", algorithms="rage", command=command)
        with pytest.raises(ConfigError, match="unknown command"):
            ExperimentConfig("example2", command="desing")

    def test_delta_only_where_read(self):
        # run on an identification preset and complexity read delta; design
        # and the varest estimators do not, so only its default passes there.
        for preset, command in [("example2", "run"), ("example2", "complexity")]:
            assert ExperimentConfig(preset, delta=0.3, command=command).delta == 0.3
        for preset, command in [("example2", "design"), ("varest", "run")]:
            assert ExperimentConfig(preset, delta=0.05, command=command).delta == 0.05
            with pytest.raises(ConfigError, match=f"unknown setting delta for {command}"):
                ExperimentConfig(preset, delta=0.3, command=command)

    def test_fields_coerced(self):
        cfg = ExperimentConfig(" Example-2 ", replications="3", base_seed=2.0, delta="0.1",
                               jobs="2", output_path=None, algorithms="rage, hrage,")
        assert (cfg.preset, cfg.replications, cfg.base_seed, cfg.delta, cfg.jobs) == ("example2", 3, 2, 0.1, 2)
        # Algorithms come in the task's canonical order; none given means all.
        assert cfg.algorithms == ("hrage", "rage")
        assert ExperimentConfig("example2", algorithms=["rage"]).algorithms == ("rage",)
        assert ExperimentConfig("example2", algorithms=()).algorithms == IDENT_ALGORITHMS
        assert ExperimentConfig("varest").algorithms == VAREST_ALGORITHMS

    @pytest.mark.parametrize("field, value", [
        ("replications", "x"), ("base_seed", None), ("delta", "small"), ("jobs", [2]), ("algorithms", 5),
        ("replications", 2.5), ("replications", math.inf), ("overrides", {"fw_tol": 10**400}),
    ])
    def test_bad_field_type_is_a_config_error(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig("example2", **{field: value})

    @pytest.mark.parametrize("preset, overrides", [
        ("example1", {"d": 4.5}), ("example2", {"d": 3.5}), ("varest", {"d": 6.5}),
        ("varest", {"n_sphere": 200.5}), ("varest", {"n_small": 300.5}),
        ("varest", {"budgets": (10_000.9, 2.5)}), ("example1", {"d": math.inf}),
    ])
    def test_integer_parameters_must_be_integral(self, preset, overrides):
        # Truncating would build another instance or budget than the one asked for.
        with pytest.raises(ConfigError, match="not an integer|infinity"):
            build_preset(config(preset, overrides=overrides))
        if "budgets" in overrides:
            with pytest.raises(ValueError, match="not an integer"):
                VarEstTask(overrides["budgets"])
