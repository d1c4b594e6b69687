import re
from pathlib import Path

import pytest

import hetbandit

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "ComplexityReport", "ConfigError", "DEFAULT_C_PRIME", "DegenerateGap", "Design",
    "DesignProblem", "DimensionMismatch", "Environment", "ExperimentConfig",
    "HetBanditError", "HeteroInstance", "IdentTask", "InsufficientBudget", "LiftedArm",
    "PresetBundle", "RankDeficientLift", "RoundSchedule", "RunConfig", "RunTrace",
    "SingularInformation", "SpanViolation", "VarEstTask", "VarianceEstimate",
    "build_preset", "emit_design_table", "gap_delta", "head_budget_for_half",
    "head_estimate", "hrage_run", "lift_arms", "lift_phi", "mae", "oracle_run",
    "psi_star", "rage_run", "round_design", "run_suite", "separate_arm_estimate",
    "solve_design", "uniform_estimate", "unvech", "vech", "wls_estimate",
}


class TestPublicApi:
    def test_all_is_pinned(self):
        assert len(hetbandit.__all__) == len(PUBLIC)
        assert set(hetbandit.__all__) == PUBLIC

    def test_every_name_resolves(self):
        for name in hetbandit.__all__:
            assert getattr(hetbandit, name) is not None, name

    @pytest.mark.parametrize("name", ["info_matrix", "quad_form_inv", "oracle_truth_estimate"])
    def test_deleted_names_absent(self, name):
        assert not hasattr(hetbandit, name)
        for module in (hetbandit.core, hetbandit.varest):
            assert not hasattr(module, name)


def test_readme_library_example_runs(capsys):
    # The README's only Python block is its "Library example"; it must run
    # as written against the installed API.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    psi, rho, answer, pulls = capsys.readouterr().out.split()
    assert float(psi) <= float(rho) and int(answer) == 0 and float(pulls) > 0
