"""The path and involution layers never reach into the subspace lattice:
algebra, errors, motzkin and involution import none of matspace, psi and
decomp, so the expansion identities run without a lattice call.  The command
line imports only public names of the package.  The public surface is
exactly ``qlattice.__all__``: every listed name resolves, and every public
name the package binds is listed."""

import ast
import types
from pathlib import Path

import pytest

import qlattice

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


def test_the_cli_imports_no_private_name():
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("qlattice"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_every_export_resolves():
    assert [name for name in qlattice.__all__
            if not hasattr(qlattice, name)] == []


def test_every_public_name_is_exported():
    public = {name for name, value in vars(qlattice).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public - set(qlattice.__all__) == set()
