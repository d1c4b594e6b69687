import pytest

import hetbandit

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
