"""Every tolerance has one home, ``contextsim.tolerances``.

The values are pinned as literals, and an ``ast`` scan of the package checks
that no other module defines a tolerance of its own, imports one from
anywhere else or under another name, or writes a small float literal into
its code instead of naming a constant.
"""

import ast
from pathlib import Path

from contextsim import tolerances

PACKAGE = Path(tolerances.__file__).parent
SUFFIXES = ("_TOL", "_THRESHOLD", "_FLOOR", "_CUTOFF")
PINNED = {
    "CLOSED_FORM_TOL": 1e-9,
    "SUPPORT_THRESHOLD": 1e-10,
    "NORMALIZATION_TOL": 1e-9,
    "NEGATIVE_FLOOR": -1e-12,
    "IMAG_TOL": 1e-10,
    "MERGE_TOL": 1e-8,
    "BASIS_TOL": 1e-8,
    "PHASE_CUTOFF": 1e-8,
    "HERMITICITY_TOL": 1e-10,
    "NORM_TOL": 1e-12,
    "DENSITY_TOL": 1e-10,
    "RAY_MATCH_TOL": 1e-8,
    "PAIRING_TIE_TOL": 1e-12,
}


def other_modules():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "tolerances.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_every_tolerance_keeps_its_value():
    defined = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    assert defined == PINNED
    assert all(type(value) is float for value in defined.values())


def test_each_tolerance_has_a_comment_line_above_it():
    lines = (PACKAGE / "tolerances.py").read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines):
        if line.split(" = ")[0] in PINNED:
            assert lines[k - 1].startswith("# "), line


def test_no_other_module_defines_or_renames_a_tolerance():
    for name, tree in other_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert not node.id.endswith(SUFFIXES), f"{name}:{node.lineno} assigns {node.id}"
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                assert not node.attr.endswith(SUFFIXES), f"{name}:{node.lineno} assigns {node.attr}"
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name.endswith(SUFFIXES) or (alias.asname or "").endswith(SUFFIXES):
                        where = f"{name}:{node.lineno} imports {alias.name}"
                        assert (node.level, node.module, alias.asname) == (1, "tolerances", None), where


def test_no_other_module_holds_a_small_float_literal():
    for name, tree in other_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                assert not 0.0 < abs(node.value) < 1e-6, f"{name}:{node.lineno} holds {node.value!r}"
