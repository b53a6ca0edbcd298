"""The structure of src/flaglab: the lower layers never import the layers
built on them, one handler maps errors to exit codes, and every definition
is on a path from the command line."""

import ast
from pathlib import Path

import numpy as np
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


# --- reachability from the command line -----------------------------------------

ROOTS = {("cli", None, "main"), ("cli", None, "build_parser"), ("cli", "_Parser", "error")}
# x.copy() is nearly always an array's copy: an attribute named like a method
# of ndarray or of a builtin container reaches no flaglab method
BUILTIN_ATTRS = set().union(*(dir(t) for t in (np.ndarray, list, dict, set, str, tuple)))


def _references(node) -> set[tuple[str, bool]]:
    """(name, is_attribute) of every Name and Attribute under node;
    docstrings and comments hold none."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add((sub.id, False))
        elif isinstance(sub, ast.Attribute):
            found.add((sub.attr, True))
    return found


def _definitions():
    """{(module, class or None, name): nodes to scan once it is reached}
    for every module-level function, class and constant of src/flaglab and
    every method, plus the module-level statements that define nothing."""
    defs, always = {}, []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs[module, None, node.name] = [node]
            elif isinstance(node, ast.ClassDef):
                # a reached class runs its decorators, bases, fields and dunders
                own = [*node.decorator_list, *node.bases, *node.keywords]
                for item in node.body:
                    method = isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    )
                    if method:
                        defs[module, node.name, item.name] = [item]
                    else:
                        own.append(item)
                defs[module, None, node.name] = own
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[module, None, name.id] = [node]
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue  # the module docstring
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                always.append(node)  # e.g. the __main__ guard
    return defs, always


def _unreachable() -> list[str]:
    """Definitions that no chain of references from the command line
    reaches.  A name reaches every module-level definition of that name;
    an attribute reaches those and every method of that name."""
    defs, always = _definitions()
    named: dict[str, list] = {}
    for key in defs:
        named.setdefault(key[2], []).append(key)
    reached = set(ROOTS)
    todo = [n for key in ROOTS for n in defs[key]] + always
    while todo:
        for name, is_attr in _references(todo.pop()):
            for key in named.get(name, ()):
                method = key[1] is not None
                if key in reached or method and (not is_attr or name in BUILTIN_ATTRS):
                    continue
                reached.add(key)
                todo.extend(defs[key])
    return sorted(".".join(p for p in key if p) for key in defs if key not in reached)


def test_src_is_what_the_commands_run():
    # every function, class, constant and method of src/flaglab is on a path
    # from cli.main; code that only tests use lives in tests/oracles.py
    assert _unreachable() == []


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_src_imports_no_test_code(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
    assert not {name.split(".")[0] for name in names} & {"tests", "oracles", "conftest"}


# --- private names stay in their module ------------------------------------------


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _own_private_names(tree) -> set[str]:
    """The single-underscore names a module defines: at module level, in its
    class bodies and as attributes it assigns (self._cache = ...)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.add(node.attr)
    return {name for name in found if _private(name)}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_reaches_another_modules_private_names(module):
    # a private name is its module's own business: a caller elsewhere gets a
    # public name, so each module can change its private parts alone
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    own = _own_private_names(trees[module])
    others = set().union(*(_own_private_names(t) for name, t in trees.items() if name != module))
    reached = set()
    for node in ast.walk(trees[module]):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("flaglab")):
            reached.update(alias.name for alias in node.names if _private(alias.name))
        elif isinstance(node, ast.Attribute) and node.attr in others - own:
            reached.add(node.attr)
    assert reached == set()
