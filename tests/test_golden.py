"""Pinned ``run_suite`` bodies: a change that should not move any result can
show that it does not.

Each file under ``tests/golden`` is the schema-v1 CSV that ``run_suite``
writes for its preset at ``base_seed=7`` (``example2`` at 2 replications,
``varest`` at its defaults and 1 replication), with the ``wall_ms`` column
dropped. Integers and labels must match exactly, floats to ``rel=1e-9``.
From the repository root, ``varest.csv`` is regenerated by::

    PYTHONPATH=src python -m hetbandit.cli run --preset varest --reps 1 --seed 7 --out varest.csv
    sed -E 's/,[^,]*$//' varest.csv > tests/golden/varest.csv && rm varest.csv
"""

from __future__ import annotations

from pathlib import Path

import pytest

from hetbandit import ExperimentConfig, run_suite
from hetbandit.runner import SCHEMA_VERSION

GOLDEN = Path(__file__).parent / "golden"


def _cell(text: str):
    """An int, a float or a label, as the CSV writer formats them."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@pytest.mark.parametrize("preset, reps", [("example2", 2), ("varest", 1)])
def test_run_suite_body_matches_golden(tmp_path, preset, reps):
    path = tmp_path / f"{preset}.csv"
    _, failed = run_suite(ExperimentConfig(preset, replications=reps, base_seed=7,
                                           output_path=str(path)))
    assert not failed
    lines = path.read_text().splitlines()
    golden = (GOLDEN / f"{preset}.csv").read_text().splitlines()
    assert SCHEMA_VERSION == 1
    assert lines[0] == golden[0] == "# schema_version=1"
    assert lines[1].endswith(",wall_ms")
    body = [line.rsplit(",", 1)[0] for line in lines[1:]]
    assert len(body) == len(golden) - 1
    for got_line, want_line in zip(body, golden[1:]):
        got = [_cell(c) for c in got_line.split(",")]
        want = [_cell(c) for c in want_line.split(",")]
        assert len(got) == len(want), got_line
        for g, w in zip(got, want):
            if isinstance(w, float):
                assert g == pytest.approx(w, rel=1e-9, nan_ok=True), got_line
            else:
                assert g == w and type(g) is type(w), got_line
