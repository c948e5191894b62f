"""The exact core never touches floating point; only cli.py's display copies may."""

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
