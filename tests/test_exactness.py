"""The exact core never touches floating point; only cli.py's display copies may.

The builders and the CLI check boxes on the integer grid, never through the
Fraction-form checks.
"""

import ast
from pathlib import Path

import pytest

import minorkit

CORE = ("graph", "boxes", "build", "flow", "stealth", "ratio")


def float_uses(source: str) -> list[int]:
    """Lines that name `float` or hold a float (or complex) literal."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
    )


def test_scanner_sees_floats():
    assert float_uses("x = float(y)\nz: float = 1\nw = 2.5\nv = 1e3\nu = 1j\n") == [1, 2, 3, 4, 5]
    assert float_uses('"""a 0.5 float in prose"""\nx = 1 / 2\n') == []


@pytest.mark.parametrize("module", CORE)
def test_core_module_has_no_float(module):
    path = Path(minorkit.__file__).with_name(f"{module}.py")
    assert float_uses(path.read_text()) == [], f"{module}.py uses floats"


# The Fraction-form checks; the box commands and the builders check on the grid instead.
FRACTION_CHECKS = frozenset(("verify_c1", "verify_c2", "rep_from_json", "witness_radii", "exposed_witness"))


def names_used(source: str, names) -> list[str]:
    """The given names that the source imports, names or reaches as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.extend(alias.name for alias in node.names)
    return sorted(name for name in found if name in names)


def test_name_scanner_sees_calls_and_imports():
    source = "from .boxes import verify_c1\nboxes.verify_c2(g, r)\ncheck = exposed_witness\nverify_grid(g, r)\n"
    assert names_used(source, FRACTION_CHECKS) == ["exposed_witness", "verify_c1", "verify_c2"]
    assert names_used('"""verify_c1 in prose"""\n', FRACTION_CHECKS) == []


@pytest.mark.parametrize("module", ("build", "cli"))
def test_box_paths_use_no_fraction_check(module):
    path = Path(minorkit.__file__).with_name(f"{module}.py")
    assert names_used(path.read_text(), FRACTION_CHECKS) == [], f"{module}.py checks boxes off the grid"


@pytest.mark.parametrize("module", CORE)
def test_core_module_has_no_second_walk(module):
    # graph.bfs_order is the one breadth-first walk; it queues on its own order list
    path = Path(minorkit.__file__).with_name(f"{module}.py")
    assert names_used(path.read_text(), {"deque"}) == [], f"{module}.py queues its own walk"
