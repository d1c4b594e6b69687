"""Replication orchestration and CSV emission for the experiment presets.

Each cell of a suite becomes one :class:`Record` of Python values; summary
rows are computed from the unrounded records, and every row is formatted to
CSV once. Fixed-arm presets (all but ``varest``) are built once per suite.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import time
from typing import NamedTuple

import numpy as np

from .core import HetBanditError
from .env import Environment
from .ident import IdentTask, hrage_run, oracle_run, psi_star, rage_run
from .presets import (IDENT_ALGORITHMS, VAREST_ALGORITHMS, ConfigError, ExperimentConfig, PresetBundle,
                      VarEstTask, build_preset)
from .varest import head_estimate, mae, separate_arm_estimate, uniform_estimate

SCHEMA_VERSION = 1
CSV_HEADER = "preset,algorithm,seed,metric_name,metric_value,correct,rounds,burn_in,wall_ms"
DESIGN_HEADER = "preset,sigma_source,arm_index,weight,sigma_sq"
DESIGN_FW_TOL = 1e-4


class Record(NamedTuple):
    """One CSV row as Python values; ``None`` leaves its column empty."""

    preset: str
    algorithm: str
    seed: int | str
    metric_name: str
    metric_value: float
    correct: bool | float | None = None
    rounds: int | None = None
    burn_in: int | None = None
    wall_ms: int | None = None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.10g}"
    return str(value)


def _row(fields) -> str:
    return ",".join(_fmt(v) for v in fields)


def _ident_fields(trace):
    return "total_pulls", float(trace.total_pulls), trace.correct, len(trace.rounds), trace.burn_in_pulls


def _cells(config: ExperimentConfig, rep: int, bundle: PresetBundle) -> list:
    """``(algorithm, spawn key, run)`` per cell of replication ``rep``.

    ``run(env)`` returns the metric name, value, correct, rounds and burn-in
    of the cell. The lambdas look the algorithms up in this module's globals
    when they are called, so a patched name is the one that runs. A cell's
    spawn key holds its algorithm's index in the task's canonical list.
    """
    task, inst, run_cfg = bundle.task, bundle.instance, config.run_config
    varest = isinstance(task, VarEstTask)
    if varest:
        runs = {
            "head": lambda env, gamma: head_estimate(inst, env, gamma),
            "uniform": lambda env, gamma: uniform_estimate(inst, env, gamma),
            "separate_arm": lambda env, gamma: separate_arm_estimate(inst, env, gamma),
        }
    else:
        runs = {
            "hrage": lambda env: hrage_run(task, env, run_cfg),
            "rage": lambda env: rage_run(task, env, run_cfg),
            "oracle-het": lambda env: oracle_run(task, env, "truth", variances=bundle.variances, config=run_cfg),
            "oracle-hom": lambda env: oracle_run(task, env, "max", config=run_cfg),
        }
    # ExperimentConfig resolved the names against the canonical lists; these keys must be those lists.
    assert tuple(runs) == (VAREST_ALGORITHMS if varest else IDENT_ALGORITHMS), tuple(runs)
    if not varest:
        return [(algo, (rep, IDENT_ALGORITHMS.index(algo)), lambda env, run=runs[algo]: _ident_fields(run(env)))
                for algo in config.algorithms]
    cells = []
    for algo in config.algorithms:
        for b, gamma in enumerate(task.budgets):
            def run(env, estimate=runs[algo], gamma=gamma):
                est = estimate(env, gamma)
                return f"mae@{gamma}", mae(est, inst), None, None, est.budget_used
            cells.append((algo, (rep, 1 + VAREST_ALGORITHMS.index(algo), b), run))
    return cells


def _run_one_seed(config: ExperimentConfig, bundle: PresetBundle | None, rep: int) -> list[Record]:
    """Records of replication ``rep``'s cells, in canonical algorithm order.
    ``bundle`` is the suite's shared preset; None builds the replication's own."""
    if bundle is None:
        # A per-replication instance seed, independent of the noise streams.
        seed = np.random.SeedSequence(config.base_seed, spawn_key=(rep, 0)).generate_state(1)[0]
        bundle = build_preset(config, seed=int(seed))
    inst = bundle.instance
    records = []
    for algo, spawn_key, run in _cells(config, rep, bundle):
        env = Environment.from_instance(
            inst, seed=np.random.SeedSequence(config.base_seed, spawn_key=spawn_key)
        )
        start = time.perf_counter()
        try:
            fields = run(env)
        except HetBanditError as exc:
            fields = (f"error:{type(exc).__name__}", math.nan, False, None, None)
        wall = int(round((time.perf_counter() - start) * 1000))
        records.append(Record(bundle.name, algo, rep, *fields, wall))
    return records


def _summary_rows(records: list[Record]) -> list[Record]:
    """Mean and standard-error records per (preset, algorithm, metric)."""
    groups: dict[tuple[str, str, str], list[Record]] = {}
    for r in records:
        if not r.metric_name.startswith("error:"):
            groups.setdefault((r.preset, r.algorithm, r.metric_name), []).append(r)
    out = []
    for (preset, algo, metric), group in groups.items():
        values = np.array([r.metric_value for r in group])
        corrects = [r.correct for r in group if r.correct is not None]
        frac_correct = float(np.mean(corrects)) if corrects else None
        sem = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
        out.append(Record(preset, algo, "summary", f"{metric}:mean", float(values.mean()), frac_correct))
        out.append(Record(preset, algo, "summary", f"{metric}:sem", sem))
    return out


def run_suite(config: ExperimentConfig) -> tuple[list[str], bool]:
    """Run every (seed, algorithm) cell of the configured experiment.

    Returns the CSV data rows (summary block included) and a flag that is
    True when any cell failed. Results are emitted in seed order whatever
    the worker completion order; per-cell failures become ``error:`` rows
    rather than aborting the suite. Summary rows are computed from the
    unrounded per-seed values. A fixed-arm preset is built once here and
    shared by every replication. Writes ``config.output_path`` when set.
    """
    bundle = None if config.preset == "varest" else build_preset(config)
    run_one_seed = functools.partial(_run_one_seed, config, bundle)
    reps = range(config.replications)
    if config.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            blocks = list(pool.map(run_one_seed, reps))
    else:
        blocks = [run_one_seed(rep) for rep in reps]

    records = [record for block in blocks for record in block]
    any_failed = any(r.metric_name.startswith("error:") for r in records)
    rows = [_row(r) for r in records + _summary_rows(records)]
    if config.output_path:
        _write(config.output_path, CSV_HEADER, rows)
    return rows, any_failed


def _write(path: str, header: str, rows: list[str]):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# schema_version={SCHEMA_VERSION}\n{header}\n")
            fh.writelines(row + "\n" for row in rows)
    except OSError as exc:
        raise HetBanditError(f"could not write {path}: {exc}") from exc


def design_table_rows(bundle: PresetBundle, sigma_sources=("truth", "max")) -> list[str]:
    """Oracle design weights per arm, one row per (sigma source, arm)."""
    task = bundle.task
    if not isinstance(task, IdentTask):
        raise ConfigError("design tables need an identification preset")
    report = psi_star(task, variances=bundle.variances, fw_tol=DESIGN_FW_TOL)
    variances = bundle.variances if bundle.variances is not None else bundle.instance.arm_variances()
    rows = []
    for source in sigma_sources:
        design = report.psi_design if source == "truth" else report.rho_design
        for arm_index, weight in enumerate(design.weights):
            rows.append(_row((bundle.name, source, arm_index, float(weight), float(variances[arm_index]))))
    return rows


def emit_design_table(bundle: PresetBundle, path: str, sigma_sources=("truth", "max")):
    _write(path, DESIGN_HEADER, design_table_rows(bundle, sigma_sources))
