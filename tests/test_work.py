"""Work-count gates for one whole round of each benchmark workload.

The gates count the calls to ``np.linalg`` that a round makes, with the
design memo cleared first. Counts do not drift with machine load as wall
times do, so a change that makes the solver or the estimators do more work
fails here even on a noisy machine. At base seed 5 a round makes 2 515 calls
on ``ident`` and 407 on ``varest``, the same at one BLAS thread and at two;
the bounds leave some room above those counts.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hetbandit import ExperimentConfig, run_suite
from hetbandit import design as design_module

BENCH = Path(__file__).resolve().parents[1] / "bench"

LINALG = ("solve", "inv", "cholesky", "eigh", "lstsq", "svd")


@pytest.fixture
def linalg_calls(monkeypatch):
    """Calls to each ``np.linalg`` function in ``LINALG``, by name."""
    calls = dict.fromkeys(LINALG, 0)
    for name in LINALG:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    design_module._memo.clear()
    yield calls
    design_module._memo.clear()


def bench_workloads():
    """``WORKLOADS`` of ``bench/run.py``: (preset, overrides, replications)
    per ``run_suite`` call of one round. run.py imports ``probe`` from its
    own directory."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    return run.WORKLOADS


# The bound on one round's total, per workload.
BOUNDS = {"ident": 3_000, "varest": 490}


@pytest.mark.parametrize("workload", BOUNDS)
def test_round_linalg_calls(linalg_calls, workload):
    for preset, overrides, reps in bench_workloads()[workload]:
        _rows, any_failed = run_suite(ExperimentConfig(preset, replications=reps, base_seed=5,
                                                       overrides=overrides))
        assert not any_failed
    total = sum(linalg_calls.values())
    assert 0 < total <= BOUNDS[workload], linalg_calls
