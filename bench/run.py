#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of hetbandit experiment runs.

Runs a workload through ``hetbandit.runner.run_suite`` (the path of
``hetbandit run``, one process) in whole rounds until ``--seconds`` have
passed, checks every output against values computed here, and prints one
JSON object as the last line of standard output.

    python3 bench/run.py --workload ident --seed 7 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every round
twice, untraced and with spans around each layer's public functions, and
reports the per-layer metrics. See ``bench/README.md`` for the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
from probe import Probe, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

VAREST_OVERRIDES = {"d": 15, "budgets": (10_000, 40_000, 95_000)}
# One round of a workload: (preset, overrides, replications) per run_suite call.
WORKLOADS = {
    "ident": (("example1", {}, 4), ("example2", {}, 4)),
    "multivariate": (("multivariate", {}, 2),),
    "varest": (("varest", VAREST_OVERRIDES, 4),),
}
IDENT_RUNS = ("hrage_run", "rage_run", "oracle_run")
ESTIMATORS = {"head_estimate": "head", "uniform_estimate": "uniform",
              "separate_arm_estimate": "separate_arm"}
# Set-up is sampled after every round, and at least this often per run, so
# that its median spans the whole run rather than one moment of it.
SETUP_SAMPLES = 5
# Percentiles tried for the design-call tail, highest first; the first with at
# least TAIL_BEYOND calls above it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
VALUE_RTOL = 1e-6

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import hetbandit
for preset, overrides in {presets!r}:
    hetbandit.build_preset(hetbandit.ExperimentConfig(preset, base_seed={seed}, overrides=overrides))
print(time.perf_counter() - start)
"""

PER_LAYER = (
    ("design.calls", "count"), ("design.busy_s", "s"), ("design.call_ms_p50", "ms"),
    ("design.call_ms_tail", "ms"), ("design.distinct_ratio", "ratio"),
    ("design.uncertified", "count"), ("design.uncertified_s", "s"),
    ("design.dopt_calls", "count"), ("design.dopt_s", "s"),
    ("design.transductive_calls", "count"), ("design.transductive_s", "s"),
    ("core.solve_psd_calls", "count"),
    ("env.pulls", "count"), ("env.per_pull_draws", "count"), ("env.busy_s", "s"),
    ("varest.calls", "count"), ("varest.self_s", "s"),
    ("ident.runs", "count"), ("ident.rounds", "count"), ("ident.self_s", "s"),
    ("presets.build_s", "s"), ("runner.cells", "count"), ("runner.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import hetbandit from this checkout's sources, never from elsewhere."""
    if not (SRC / "hetbandit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hetbandit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hetbandit

    if Path(hetbandit.__file__).resolve().parent != SRC / "hetbandit":
        raise SystemExit(f"bench: imported hetbandit from {hetbandit.__file__}")
    return hetbandit


def round_seed(seed: int, k: int) -> int:
    """Base seed of round ``k``: every round draws fresh replication streams."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def environment_lines() -> list[str]:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or sha
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return [
        f"git_sha: {sha}",
        f"nproc: {len(os.sched_getaffinity(0))} (cpu_count {os.cpu_count()})",
        f"python: {sys.version.split()[0]}",
        f"numpy: {np.__version__}",
        f"blas: {blas_name}",
        f"blas_threads: {blas_threads()}",
    ]


def blas_threads() -> str:
    """Thread count of numpy's bundled OpenBLAS, asked through its own API."""
    import ctypes

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for lib in sorted(libs_dir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    env = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return f"unknown ({env or 'no *_NUM_THREADS set'})"


def setup_sample(workload: str, seed: int) -> float:
    """Import hetbandit and build the workload's presets in a fresh interpreter."""
    presets = [(preset, overrides) for preset, overrides, _reps in WORKLOADS[workload]]
    code = SETUP_CODE.format(src=str(SRC), presets=presets, seed=round_seed(seed, 0))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def run_round(hb, probe, workload: str, seed: int, k: int):
    """Round ``k`` of the workload with ``probe`` installed.

    Returns its wall time and its per-cell CSV rows, split into fields.
    """
    rows = []
    probe.round = k
    with probe.installed(hb):
        start = time.perf_counter()
        for preset, overrides, reps in WORKLOADS[workload]:
            config = hb.ExperimentConfig(preset, replications=reps, base_seed=round_seed(seed, k),
                                         overrides=dict(overrides))
            suite_rows, _any_failed = hb.runner.run_suite(config)
            rows += [row.split(",") for row in suite_rows]
        seconds = time.perf_counter() - start
    return seconds, [row for row in rows if row[2] != "summary"]


# ---------------------------------------------------------------- checks


class Checker:
    """Checks the outputs of a run against values computed here.

    Cell checks mark single (seed, algorithm[, budget]) cells as failed;
    aggregate checks speak of the run as a whole.
    """

    def __init__(self):
        self.failed_cells = 0
        self.aggregate_ok = True
        self.notes: list[str] = []

    def fail_cell(self, message):
        self.failed_cells += 1
        self.notes.append("cell: " + message)

    def fail_run(self, message):
        self.aggregate_ok = False
        self.notes.append("run: " + message)

    def cells(self, rows, cells):
        """Pair the runner's rows with the captured results and check each."""
        captured = iter(cells)
        pulls = defaultdict(lambda: defaultdict(list))
        errors = defaultdict(lambda: defaultdict(list))
        head_budget = []
        for row in rows:
            preset, algo, seed, metric, value = row[:5]
            if metric.startswith("error:"):
                self.fail_cell(f"{preset} {algo} seed {seed}: {metric}")
                continue
            name, args, result = next(captured)
            if name in IDENT_RUNS:
                inst = args[0].instance
                best = int(np.argmax(inst.targets @ inst.theta_star))
                if result.answer != best:
                    self.fail_cell(f"{preset} {algo} seed {seed}: answer {result.answer}, best arm {best}")
                    continue
                pulls[preset][algo].append(result.total_pulls)
            else:
                if ESTIMATORS[name] != algo:
                    raise RuntimeError(f"row {row} does not match captured call {name}")
                inst, gamma = args[0], args[2]
                truth = np.einsum("ij,jk,ik->i", inst.arms, inst.sigma_star, inst.arms)
                error = float(np.max(np.abs(np.asarray(result.per_arm) - truth)))
                if not math.isfinite(error) or not math.isclose(error, float(value), rel_tol=1e-8, abs_tol=1e-12):
                    self.fail_cell(f"{preset} {algo} seed {seed} budget {gamma}: error {error} vs reported {value}")
                    continue
                errors[gamma][algo].append(error)
                if algo == "head":
                    head_budget.append(result.budget_used)
        if next(captured, None) is not None:
            raise RuntimeError("more captured calls than result rows")
        for preset, by_algo in pulls.items():
            h, r = by_algo.get("hrage"), by_algo.get("rage")
            if h and r and not np.mean(h) < np.mean(r):
                self.fail_run(f"{preset}: mean H-RAGE pulls {np.mean(h):.0f} not below RAGE {np.mean(r):.0f}")
        head_means = []
        for gamma in sorted(errors):
            means = {algo: float(np.mean(v)) for algo, v in errors[gamma].items()}
            head_means.append(means["head"])
            for other in ("uniform", "separate_arm"):
                if other in means and not means["head"] < means[other]:
                    self.fail_run(f"budget {gamma}: mean HEAD error {means['head']:.4g} not below {other} {means[other]:.4g}")
        if any(b >= a for a, b in zip(head_means, head_means[1:])):
            self.fail_run(f"mean HEAD error does not fall with the budget: {head_means}")
        return pulls, head_budget

    def designs(self, designs):
        """Simplex, attained value and Kiefer-Wolfowitz band of every design."""
        for _round, problem, design, _span in designs:
            w = np.asarray(design.weights)
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
                self.fail_run(f"design weights off the simplex (sum {w.sum()})")
                continue
            X = np.asarray(problem.sample_vectors)
            V = np.asarray(problem.eval_vectors)
            var = np.asarray(problem.variances)
            value = design_value(X, V, var, w)
            if not math.isclose(value, design.value, rel_tol=VALUE_RTOL):
                self.fail_run(f"design value {design.value!r} but max v'A(w)^+v is {value!r}")
            if is_dopt(problem):
                rank = np.linalg.matrix_rank(X)
                low = rank * var[0]
                if not low * (1 - VALUE_RTOL) <= design.value <= low * (1 + problem.tolerance):
                    self.fail_run(f"D-optimal value {design.value!r} outside [{low}, {low * (1 + problem.tolerance)}]")


def design_value(X, V, variances, w) -> float:
    """max_v v'A(w)^+ v with A(w) = sum_x w_x x x' / var_x, from an eigendecomposition."""
    A = (X * (w / variances)[:, None]).T @ X
    eig, vecs = np.linalg.eigh(A)
    keep = eig > eig.max() * 1e-12
    coords = V @ vecs
    outside = np.abs(coords[:, ~keep]).max(initial=0.0)
    if outside > 1e-7 * (1.0 + np.abs(V).max()):
        return math.inf
    return float(((coords[:, keep] ** 2) / eig[keep]).sum(axis=1).max())


def is_dopt(problem) -> bool:
    """Self-evaluating problem with one common variance (the D-optimal family)."""
    X, V, var = problem.sample_vectors, problem.eval_vectors, np.asarray(problem.variances)
    return X.shape == V.shape and np.array_equal(X, V) and bool(np.all(var == var[0]))


# ---------------------------------------------------------------- metrics


def problem_key(problem) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    for part in (problem.sample_vectors, problem.eval_vectors, problem.variances):
        digest.update(repr(part.shape).encode())
        digest.update(part.tobytes())
    digest.update(repr(float(problem.tolerance)).encode())
    return digest.digest()


def tail_percentile(n: int) -> float:
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= TAIL_BEYOND:
            return p
    return 50.0


def layer_metrics(probe, rounds, rows, traced_times, untraced_times):
    """Per-layer figures. Counts and times are totals per round, so that runs
    of any length compare; the percentiles and the ratio are not totals."""
    spans = probe.spans
    busy, self_s, calls = Counter(), Counter(), Counter()
    for (name, layer, start, end, parent), own in zip(spans, self_times(spans)):
        self_s[layer] += own
        calls[name] += 1
        # Busy time counts a layer's outermost spans only.
        if parent < 0 or spans[parent][1] != layer:
            busy[layer] += end - start
    seconds = [spans[i][3] - spans[i][2] for _r, _p, _d, i in probe.designs]
    call_ms = sorted(1e3 * t for t in seconds)
    tail_p = tail_percentile(len(call_ms))
    uncert = [t for t, (_r, _p, d, _i) in zip(seconds, probe.designs) if not d.certified]
    dopt = [t for t, (_r, p, _d, _i) in zip(seconds, probe.designs) if is_dopt(p)]
    keys = defaultdict(list)
    for k, problem, _d, _i in probe.designs:
        keys[k].append(problem_key(problem))
    totals = {
        "design.calls": len(call_ms),
        "design.busy_s": busy["design"],
        "design.uncertified": len(uncert),
        "design.uncertified_s": sum(uncert),
        "design.dopt_calls": len(dopt),
        "design.dopt_s": sum(dopt),
        "design.transductive_calls": len(call_ms) - len(dopt),
        "design.transductive_s": busy["design"] - sum(dopt),
        "core.solve_psd_calls": probe.counts["core.solve_psd_calls"],
        "env.pulls": probe.counts["env.pulls"],
        "env.per_pull_draws": probe.counts["env.per_pull_draws"],
        "env.busy_s": busy["env"],
        "varest.calls": sum(calls[n] for n in ESTIMATORS),
        "varest.self_s": self_s["varest"],
        "ident.runs": sum(calls[n] for n in IDENT_RUNS),
        "ident.rounds": sum(len(r.rounds) for n, _a, r in probe.cells if n in IDENT_RUNS),
        "ident.self_s": self_s["ident"],
        "presets.build_s": busy["presets"],
        "runner.cells": len(rows),
        "runner.self_s": self_s["runner"],
        "trace.overhead_s": sum(traced_times) - sum(untraced_times),
    }
    metrics = {k: v / rounds for k, v in totals.items()}
    metrics["design.call_ms_p50"] = float(np.percentile(call_ms, 50)) if call_ms else 0.0
    metrics["design.call_ms_tail"] = float(np.percentile(call_ms, tail_p)) if call_ms else 0.0
    # Distinct problems among the solves of one round, averaged over rounds.
    metrics["design.distinct_ratio"] = (
        float(np.mean([len(set(v)) / len(v) for v in keys.values()])) if keys else 1.0
    )
    notes = [f"design.call_ms_tail: p{tail_p:g} of {len(call_ms)} design calls"]
    return metrics, notes


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    hb = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    for line in environment_lines():
        print(line)
    checker = Checker()

    plain = Probe(trace=False)
    times, rows = [], []
    if not args.trace:
        setup = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < args.seconds:
            seconds, round_rows = run_round(hb, plain, args.workload, args.seed, len(times))
            times.append(seconds)
            rows += round_rows
            setup.append(setup_sample(args.workload, args.seed))
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(args.workload, args.seed))
        pulls, head_budget = checker.cells(rows, plain.cells)
        if args.workload == "varest":
            samples = float(np.mean(head_budget))
        else:
            samples = float(np.mean([p for by_algo in pulls.values() for p in by_algo["hrage"]]))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": sum(times) / len(times), "unit": "s"},
            "samples": {"value": samples, "unit": "count"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        notes = [f"round_s: {' '.join(f'{t:.3f}' for t in times)}",
                 f"setup_s: {' '.join(f'{t:.3f}' for t in setup)}"]
        attempted = len(rows)
    else:
        # Each round runs untraced and traced, in alternating order, so the
        # difference is the tracing overhead and not warm-up or drift.
        probe = Probe(trace=True)
        traced_times, traced_rows = [], []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < args.seconds:
            k = len(times)
            sides = [(plain, times, rows), (probe, traced_times, traced_rows)]
            for side, side_times, side_rows in sides if k % 2 == 0 else sides[::-1]:
                seconds, round_rows = run_round(hb, side, args.workload, args.seed, k)
                side_times.append(seconds)
                side_rows += round_rows
        checker.cells(rows, plain.cells)
        checker.cells(traced_rows, probe.cells)
        checker.designs(probe.designs)
        values, notes = layer_metrics(probe, len(times), traced_rows, traced_times, times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(span_file, "w", encoding="utf-8") as fh:
            for name, layer, t0, t1, parent in probe.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
        notes += [f"round_s untraced: {' '.join(f'{t:.3f}' for t in times)}",
                  f"round_s traced: {' '.join(f'{t:.3f}' for t in traced_times)}",
                  f"spans: {len(probe.spans)} in {span_file.relative_to(ROOT)}"]
        attempted = len(rows) + len(traced_rows)

    for line in notes + checker.notes:
        print(line)
    print(f"rounds: {len(times)}  attempted: {attempted}  failed: {checker.failed_cells}")
    result = {"correct": checker.aggregate_ok, "attempted": attempted,
              "failed": checker.failed_cells, "metrics": metrics}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
