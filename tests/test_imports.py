"""No module of the package imports a name it never reads.

A stand-in for a linter's unused-import rule, so that a deleted check
cannot leave its exception class imported behind it. __init__.py is
skipped, since its imports are the package's re-exports, and so are
`from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oligoprofile"

# imported and never read, on purpose: perfbench/layers.py patches these bindings
KEPT_FOR_THE_TRACER = {("profiles", "structure_encoding")}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    quoted = [
        ast.parse(node.value, mode="eval")
        for annotation in _annotations(tree)
        if annotation is not None
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    return {node.id for root in (tree, *quoted) for node in ast.walk(root) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_no_module_imports_a_name_it_never_reads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name for name in _imported(tree) - _read(tree) if (path.stem, name) not in KEPT_FOR_THE_TRACER}
    assert not unused, f"{path.name} imports {sorted(unused)} and never reads them"
