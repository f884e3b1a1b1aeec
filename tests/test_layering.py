"""The path and involution layers never reach into the subspace lattice:
algebra, errors, motzkin and involution import none of matspace, psi and
decomp, so the expansion identities run without a lattice call."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qlattice"
LATTICE = {"matspace", "psi", "decomp"}


def imported_modules(path):
    """The qlattice modules a source file imports, by their short names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import y, or from . import x
                names = ([node.module] if node.module
                         else [alias.name for alias in node.names])
            elif node.module == "qlattice":
                names = [alias.name for alias in node.names]
            else:
                names = [node.module]
        else:
            continue
        for name in names:
            found.add(name.removeprefix("qlattice.").split(".")[0])
    return found


@pytest.mark.parametrize("module", ["algebra", "errors", "motzkin",
                                    "involution"])
def test_path_layers_import_no_lattice_module(module):
    assert imported_modules(SRC / f"{module}.py") & LATTICE == set()


def test_the_scan_sees_lattice_imports():
    assert {"matspace", "psi", "motzkin"} <= imported_modules(
        SRC / "decomp.py")
