"""The lower layers of flaglab never import the layers built on them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "flaglab"
LOWER = ("boxdim", "sphere", "mobius", "subspaces", "prodsvd", "words")
UPPER = {"certify", "fibers", "cli"}


def _imports(module: str) -> set[str]:
    """flaglab modules that module imports anywhere in its source, lazy
    imports inside functions included."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flaglab."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("flaglab.")
            )
    return found


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_skip_upper(module):
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_imports(name))
    assert not seen & UPPER, f"{module} reaches {sorted(seen & UPPER)}"


def test_boxdim_imports_only_errors_and_mobius():
    assert _imports("boxdim") == {"errors", "mobius"}


BROAD = {"Exception", "BaseException", "FlaglabError"}


def _broad_handlers(tree) -> set[int]:
    """Lines of the bare excepts and of the handlers that catch Exception,
    BaseException or FlaglabError, alone or in a tuple."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {getattr(c, "id", None) or getattr(c, "attr", None) for c in caught}
        if node.type is None or names & BROAD:
            found.add(node.lineno)
    return found


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_broad_except_only_in_cli_main(module):
    # an error's class picks the exit code in one place; anywhere else a
    # broad handler would turn a failure into a silent skip or a verdict
    tree = ast.parse((SRC / f"{module}.py").read_text())
    allowed = set()
    if module == "cli":
        main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
        allowed = _broad_handlers(main)
        assert allowed, "cli.main maps every FlaglabError to an exit code"
    assert _broad_handlers(tree) - allowed == set()
