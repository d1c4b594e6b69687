import ast
import re
from pathlib import Path

import pytest

import hetbandit

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "ComplexityReport", "ConfigError", "DEFAULT_C_PRIME", "DegenerateGap", "Design",
    "DesignProblem", "DimensionMismatch", "Environment", "ExperimentConfig",
    "HetBanditError", "HeteroInstance", "IdentTask", "InsufficientBudget",
    "PresetBundle", "RankDeficientLift", "RoundSchedule", "RunConfig", "RunTrace",
    "SpanViolation", "VarEstTask", "VarianceEstimate",
    "build_preset", "emit_design_table", "head_budget_for_half", "head_estimate",
    "hrage_run", "lift_arms", "mae", "oracle_run", "psi_star", "rage_run",
    "round_design", "run_suite", "separate_arm_estimate", "solve_design",
    "uniform_estimate", "unvech", "vech",
}


def _defines_and_uses(path):
    """The names a module defines at top level, and every name it reads,
    imports or takes as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defines = {node.name for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    defines |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif isinstance(node, ast.alias):
            uses.add(node.name)
    return defines, uses


class TestPublicApi:
    def test_all_is_pinned(self):
        assert len(hetbandit.__all__) == len(PUBLIC)
        assert set(hetbandit.__all__) == PUBLIC

    def test_every_name_resolves(self):
        for name in hetbandit.__all__:
            assert getattr(hetbandit, name) is not None, name

    @pytest.mark.parametrize("name", ["info_matrix", "quad_form_inv", "oracle_truth_estimate",
                                      "LiftedArm", "lift_phi", "gap_delta", "wls_estimate",
                                      "SingularInformation"])
    def test_deleted_names_absent(self, name):
        assert not hasattr(hetbandit, name)
        for module in (hetbandit.core, hetbandit.ident, hetbandit.varest):
            assert not hasattr(module, name)

    def test_every_name_is_used_or_documented(self):
        # A public name earns its place: a package module other than the one
        # defining it imports or references it, or README names it.
        modules = [_defines_and_uses(path) for path in Path(hetbandit.__file__).resolve().parent.glob("*.py")
                   if path.stem != "__init__"]
        readme = README.read_text(encoding="utf-8")
        unused = [name for name in hetbandit.__all__
                  if not any(name in uses and name not in defines for defines, uses in modules)
                  and not re.search(rf"\b{name}\b", readme)]
        assert not unused, f"public names that no other module uses and README does not name: {unused}"


def test_readme_library_example_runs(capsys):
    # The README's only Python block is its "Library example"; it must run
    # as written against the installed API.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    psi, rho, answer, pulls = capsys.readouterr().out.split()
    assert float(psi) <= float(rho) and int(answer) == 0 and float(pulls) > 0
