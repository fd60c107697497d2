"""The package surface: the public names, and no import left without a use."""

import ast
from pathlib import Path

import pytest

import falabel

SRC = Path(falabel.__file__).parent


def test_public_names_resolve_and_others_do_not():
    for name in falabel.__all__:
        assert getattr(falabel, name) is not None
    with pytest.raises(AttributeError):
        getattr(falabel, "nope")
    assert set(falabel.__all__) <= set(dir(falabel))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names imported at the top level of the module or of a function body
    that the module or that function never reads."""
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    unused = []
    for scope in scopes:
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for stmt in scope.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"line {stmt.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
