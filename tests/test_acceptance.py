"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte-Carlo criteria run at desk scale with fixed seeds; tolerances are
pinned in the asserts. Criterion 7 carries a known-unattainable clause (see
the project notes); its assert is faithful and expected to stay red.
"""

import math
import time

import numpy as np
import pytest

from conftest import grid_psi_value, random_bai_instance
from hetbandit import (
    DesignProblem,
    Environment,
    ExperimentConfig,
    HeteroInstance,
    IdentTask,
    RunConfig,
    build_preset,
    head_estimate,
    hrage_run,
    lift_arms,
    mae,
    psi_star,
    rage_run,
    solve_design,
    uniform_estimate,
    separate_arm_estimate,
    vech,
)
from hetbandit.presets import build_varest_instance

pytestmark = pytest.mark.acceptance


def report(index, ok, detail):
    print(f"criterion {index}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_kw_certificate():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(d, 31))
        arms = rng.standard_normal((n, d))
        design = solve_design(DesignProblem(arms, arms, tolerance=5e-3))
        worst = max(worst, abs(design.value - d) / d)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 10.0
    assert report(1, ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s for 20 sets"), worst
    assert worst <= 0.01
    assert elapsed < 10.0


def test_criterion_02_lift_identity_fuzz():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        x = rng.standard_normal(d)
        sym = rng.standard_normal((d, d))
        sym = 0.5 * (sym + sym.T)
        direct = x @ sym @ x
        lifted = lift_arms(x)[0] @ vech(sym)
        worst = max(worst, abs(lifted - direct) / (1 + abs(direct)))
    ok = worst <= 1e-10
    assert report(2, ok, f"worst normalized error {worst:.2e} over 100 cases")
    assert worst <= 1e-10


def test_criterion_03_sandwich_bound():
    rng = np.random.default_rng(99)
    tol = 1e-3
    lo_viol, hi_viol = 0.0, 0.0
    for _ in range(50):
        d = int(rng.integers(2, 6))
        task = random_bai_instance(rng, d, int(rng.integers(d + 1, 9)))
        rep = psi_star(task, fw_tol=tol)
        kappa = task.instance.kappa()
        lo_viol = max(lo_viol, (1.0 / kappa - 1e-6) - rep.ratio)
        hi_viol = max(hi_viol, rep.ratio - (1.0 + tol))

    # Constructed boundary instances on unit-norm arms; power-of-two scales
    # keep the weighted and unweighted solves bit-identical up to scaling.
    arms = np.random.default_rng(5).standard_normal((8, 3))
    arms /= np.linalg.norm(arms, axis=1, keepdims=True)
    theta = np.array([1.0, 0.2, -0.1])
    upper_inst = HeteroInstance(arms, arms, theta, 2.0 * np.eye(3), 0.5, 2.0)
    lower_inst = HeteroInstance(arms, arms, theta, 0.5 * np.eye(3), 0.5, 2.0)
    upper = psi_star(IdentTask("bai", 0.05, upper_inst), fw_tol=tol).ratio
    lower = psi_star(IdentTask("bai", 0.05, lower_inst), fw_tol=tol).ratio
    kappa_c = 4.0

    ok = (
        lo_viol <= 0.0
        and hi_viol <= 0.0
        and upper >= 0.999
        and lower <= 1.02 / kappa_c
    )
    assert report(
        3, ok,
        f"50 instances in bounds (lo slack {-lo_viol:.1e}, hi slack {-hi_viol:.1e}); "
        f"boundary ratios {upper:.4f} / {lower:.4f} (kappa {kappa_c})",
    )
    assert lo_viol <= 0.0 and hi_viol <= 0.0
    assert upper >= 0.999
    assert lower <= 1.02 / kappa_c


def test_criterion_04_psi_matches_grid_search():
    arms = np.eye(2)
    inst = HeteroInstance(arms, arms, np.array([1.0, 0.5]), np.eye(2), 1.0, 1.0)
    closed = psi_star(IdentTask("bai", 0.05, inst)).psi_star
    errs = [abs(closed - 16.0) / 16.0]

    rng = np.random.default_rng(41)
    for _ in range(3):
        d = int(rng.integers(2, 4))
        task = random_bai_instance(rng, d, 3 if d == 2 else 4)
        rep = psi_star(task)
        oracle = grid_psi_value(task, task.instance.arm_variances(), step=1e-2)
        errs.append(abs(rep.psi_star - oracle) / oracle)
    worst = max(errs)
    ok = worst <= 0.01
    assert report(4, ok, f"closed form + 3 grid oracles, worst rel err {worst:.2e}")
    assert worst <= 0.01


def test_criterion_05_head_error_rate():
    start = time.perf_counter()
    params = {"d": 6, "n_sphere": 200, "n_small": 300}
    budgets = [10_000, 20_000, 40_000, 80_000]
    means = []
    for gamma in budgets:
        errs = []
        for seed in range(32):
            inst = build_varest_instance(params, seed=seed)
            env = Environment.from_instance(inst, seed=seed)
            errs.append(mae(head_estimate(inst, env, gamma), inst))
        means.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(budgets), np.log(means), 1)[0])
    elapsed = time.perf_counter() - start
    ok = -0.65 <= slope <= -0.35 and elapsed < 300.0
    assert report(
        5, ok, f"log-log slope {slope:.3f}, means {np.round(means, 4)}, {elapsed:.0f}s"
    )
    assert -0.65 <= slope <= -0.35
    assert elapsed < 300.0


def test_criterion_06_estimator_ordering():
    gamma = 95_000
    sep_means = []
    ok_all = True
    details = []
    for d in (9, 12, 15):
        params = {"d": d, "n_sphere": 200, "n_small": 300}
        head_errs, unif_errs, sep_errs = [], [], []
        for seed in range(32):
            inst = build_varest_instance(params, seed=seed)
            head_errs.append(
                mae(head_estimate(inst, Environment.from_instance(inst, seed=seed), gamma), inst)
            )
            unif_errs.append(
                mae(
                    uniform_estimate(
                        inst, Environment.from_instance(inst, seed=10_000 + seed), gamma, rng_seed=seed
                    ),
                    inst,
                )
            )
            sep_errs.append(
                mae(
                    separate_arm_estimate(
                        inst, Environment.from_instance(inst, seed=20_000 + seed), gamma
                    ),
                    inst,
                )
            )
        h, u, s = map(lambda e: float(np.mean(e)), (head_errs, unif_errs, sep_errs))
        sep_means.append(s)
        ok_all = ok_all and h < u and h < s
        details.append(f"d={d}: head {h:.4f} unif {u:.4f} sep {s:.4f}")
    increasing = sep_means[0] < sep_means[1] < sep_means[2]
    ok = ok_all and increasing
    assert report(6, ok, "; ".join(details) + f"; separate increasing: {increasing}")
    assert ok_all
    assert increasing


def test_criterion_07_kappa_scaling():
    ladder = [1.0, 2.0, 5.0, 10.0, 20.0]
    psis, rhos = [], []
    for kappa in ladder:
        bundle = build_preset(ExperimentConfig(preset="intro", overrides={"kappa": kappa}))
        rep = psi_star(bundle.task, variances=bundle.variances)
        psis.append(rep.psi_star)
        rhos.append(rep.rho_star)
    slope, intercept = np.polyfit(ladder, rhos, 1)
    fit = slope * np.array(ladder) + intercept
    ss_res = float(np.sum((np.array(rhos) - fit) ** 2))
    ss_tot = float(np.sum((np.array(rhos) - np.mean(rhos)) ** 2))
    r_sq = 1.0 - ss_res / ss_tot
    rel_dev = float(np.max(np.abs(np.array(rhos) - fit) / np.array(rhos)))
    linear_ok = r_sq >= 0.99 and rel_dev <= 0.05
    psi_ratio = psis[-1] / psis[0]
    flat_ok = psis[-1] <= 2.0 * psis[0]
    assert report(
        7, linear_ok and flat_ok,
        f"rho R^2 {r_sq:.5f} max dev {rel_dev:.2%}; psi(20)/psi(1) = {psi_ratio:.2f} "
        "(the flatness clause is unattainable for this geometry; see notes)",
    )
    assert linear_ok
    # Faithful assert of the stated criterion; analysis shows the ratio is
    # bounded below by ~11 for every admissible variance assignment, so this
    # is expected to fail.
    assert flat_ok


def _preset_improvement(preset_name, seeds=32):
    cfg = ExperimentConfig(preset=preset_name, overrides={"c_prime": 1.0})
    bundle = build_preset(cfg)
    run_cfg = RunConfig(c_prime=1.0)
    hits = 0
    h_pulls, r_pulls = [], []
    for seed in range(seeds):
        env = Environment.from_instance(bundle.instance, seed=seed)
        trace = hrage_run(bundle.task, env, run_cfg)
        hits += trace.correct
        h_pulls.append(trace.total_pulls)
        env = Environment.from_instance(bundle.instance, seed=100_000 + seed)
        r_pulls.append(rage_run(bundle.task, env, run_cfg).total_pulls)
    return hits, float(np.mean(h_pulls)), float(np.mean(r_pulls))


@pytest.mark.parametrize("preset_name", ["example1", "example2", "multivariate"])
def test_criterion_08_delta_pac_and_improvement(preset_name):
    start = time.perf_counter()
    hits, h_mean, r_mean = _preset_improvement(preset_name)
    elapsed = time.perf_counter() - start
    ok = hits >= 30 and h_mean < r_mean and elapsed < 1200.0
    assert report(
        8, ok,
        f"{preset_name}: correct {hits}/32, mean pulls {h_mean:.3g} vs {r_mean:.3g} "
        f"(x{r_mean / h_mean:.2f}), {elapsed:.0f}s",
    )
    assert hits >= 30
    assert h_mean < r_mean
    assert elapsed < 1200.0


def test_criterion_09_noiseless_determinism():
    arms = np.eye(2)
    targets = np.array([[1.0, 0.0], [0.9, 0.0]])
    inst = HeteroInstance(arms, targets, np.array([1.0, 0.0]), np.eye(2), 1.0, 1.0)
    task = IdentTask("bai", 0.05, inst)
    env = Environment.from_instance(inst, seed=0, noise_mode="silent")
    trace = hrage_run(task, env, RunConfig(c_prime=1.0))
    rounds_ok = len(trace.rounds) == 4
    safe = all(0 in record.active_indices for record in trace.rounds)
    ok = rounds_ok and safe and trace.correct
    assert report(
        9, ok,
        f"terminated after round {len(trace.rounds)} (gap 0.1), best target retained "
        f"in every round: {safe}",
    )
    assert rounds_ok and safe and trace.correct


def test_criterion_10_oracle_allocation_shape():
    bundle = build_preset(ExperimentConfig(preset="intro", overrides={"kappa": 20.0}))
    rep = psi_star(bundle.task, variances=bundle.variances)
    het_mass = float(rep.psi_design.weights[0] + rep.psi_design.weights[2])
    hom_mass = float(rep.rho_design.weights[1])
    ok = het_mass >= 0.9 and hom_mass >= 0.5
    assert report(
        10, ok,
        f"variance-aware mass on informative pair {het_mass:.3f} (need >= 0.9); "
        f"worst-case design mass on the loud arm {hom_mass:.3f} (need >= 0.5)",
    )
    assert het_mass >= 0.9
    assert hom_mass >= 0.5
