"""The package surface: the public names, no import left without a use, no
private function left without a caller, and no import cycle between modules."""

import ast
import inspect
from collections import Counter
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


def relative_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports by ``from .x import``, at module
    level or inside a function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_the_module_import_graph_has_no_cycle():
    # ci_baseline imported label_model for Predictions, and label_model imported ci_baseline back
    reach = {path.stem: relative_imports(path) for path in SRC.glob("*.py")}
    for _ in reach:  # after as many passes as modules, reach holds every module a module reaches
        for module, reached in reach.items():
            reached |= set().union(*(reach[other] for other in reached))
    assert [module for module in sorted(reach) if module in reach[module]] == []


def names_read(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_private_function_has_a_caller_in_src():
    # a helper that only the tests call is dead code of the package
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    read = sum(map(names_read, trees), Counter())
    uncalled = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and read[node.name] == names_read(node)[node.name]  # read in its own body only, if at all
    ]
    assert uncalled == []


FIT_SETTINGS = {"max_iter", "tol", "seed"}


def test_fit_settings_come_in_one_fit_config():
    # fit_ci_em took loose max_iter/tol/seed, and robustness_sweep a seed that overrode cfg.seed
    for name in ("fit_fa_em", "fit_fa_vi", "fit_ci_em", "train_label_model", "robustness_sweep"):
        parameters = inspect.signature(getattr(falabel, name)).parameters
        assert "cfg" in parameters and not FIT_SETTINGS & set(parameters), name
    loose = [
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and FIT_SETTINGS & {a.arg for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}
    ]
    assert loose == []


# only the synthetic generator and the sweep's subsamples draw random numbers
DRAWING_MODULES = {"synthetic.py", "metrics_eval.py"}


def test_no_fit_draws_a_random_number():
    drawing = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if any(name in path.read_text(encoding="utf-8") for name in ("np.random", "default_rng"))
    ]
    assert set(drawing) <= DRAWING_MODULES, drawing
