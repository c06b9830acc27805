"""README's "Library use" example runs and prints what its comments say,
and the package root holds exactly the names that section imports."""

import ast
import contextlib
import importlib
import io
import re
import types
from pathlib import Path

import contextsim

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks():
    """The python blocks under the "## Library use" heading."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_use_example_prints_its_commented_outputs():
    code = library_use_blocks()[0]
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["10.5", "block-structured", "5"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, str(README), "exec"), {})
    assert stdout.getvalue().splitlines() == expected


def library_use_root_imports():
    """The names the "## Library use" python blocks import ``from contextsim``."""
    names = set()
    for block in library_use_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "contextsim" and not node.level:
                names.update(alias.name for alias in node.names)
    return names


def test_package_root_holds_exactly_the_names_library_use_imports():
    public = {
        name
        for name, value in vars(contextsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(library_use_root_imports()) == 12
    assert public == library_use_root_imports()


# The public names the package root bound before it was cut to the README's
# twelve, by defining module; each stays public there.
FORMER_ROOT_NAMES = {
    "correlations": [
        "CriterionReport", "JointTable", "UniquenessReport", "contextuality_criterion", "expectation",
        "joint_distribution", "marginals", "sequential_link_test", "verify_uniqueness",
    ],
    "errors": [
        "BadCellIndexError", "ContextsimError", "DegenerateSpectrumError", "DimensionMismatchError",
        "NoConvergenceError", "NonNegligibleImaginaryPartError", "NonOrthonormalBasisError", "NotHermitianError",
        "ShapeMismatchError", "UnsupportedDimensionError", "ZeroVectorError",
    ],
    "greechie": [
        "GreechieDiagram", "TwoValuedState", "diagram_from_contexts", "diagram_to_dict", "is_separating",
        "link_atoms", "rays_match", "two_valued_states",
    ],
    "linalg": ["fix_phase", "hermitian_eigensystem", "is_hermitian", "is_unitary", "projector_from_ray"],
    "observables": [
        "ContextOperator", "Direction", "FourDimContexts", "RaySet", "context_from_basis", "four_dim_contexts",
        "ks_context", "ks_context_prime", "spin1_eigensystem", "spin1_operator",
    ],
    "sampler": ["EmpiricalReport", "derive_batch_seed", "empirical_report", "sample", "write_shot_csv"],
    "scenarios": ["SCENARIOS", "Scenario"],
    "states": [
        "BipartiteState", "DensityMatrix", "check_rotation_invariance", "density", "rotation_operator_spin1",
        "singlet", "spin1_singlet", "spin32_singlet", "unitary_invariance_defect",
    ],
}


def test_every_former_root_name_resolves_from_its_module():
    assert sum(map(len, FORMER_ROOT_NAMES.values())) == 59
    for module, names in FORMER_ROOT_NAMES.items():
        owner = importlib.import_module(f"contextsim.{module}")
        for name in names:
            assert hasattr(owner, name), f"contextsim.{module}.{name}"
