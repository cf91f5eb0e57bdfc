"""Source hygiene: no unused imports, unreferenced top-level names or
methods, unread parameters or unread config fields."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "drsync").glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree: ast.AST) -> set[str]:
    """Every name a module loads, reads as an attribute or imports by name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = _tree(path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in bound.items()
                    if name not in loaded)
    assert not unused, f"{path.name}: unused imports {unused}"


# methods that only a library calls: argparse calls a parser's error()
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}


def _top_level_names(tree: ast.Module):
    """(label, name, private method) of each function, class and module-level
    variable a module defines, and of each method of a top-level class but
    the dunder methods, which Python calls."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item.name.startswith("_")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from ((n.id, n.id, False) for n in ast.walk(target)
                            if isinstance(n, ast.Name))


def test_every_top_level_function_is_referenced():
    # a private method counts as referenced only in its own module, so one
    # that shares its name with a method elsewhere cannot hide behind it
    sources = [p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py")]
    referenced = {"__all__", "__version__"}
    for path in sources:
        referenced |= _references(_tree(path))
    unreferenced = []
    for path in MODULES:
        tree = _tree(path)
        own = _references(tree)
        unreferenced += [
            f"{path.name}:{label}"
            for label, name, private in _top_level_names(tree)
            if name not in (own if private else referenced)
            and f"{path.stem}.{label}" not in CALLED_FROM_OUTSIDE]
    assert not unreferenced, f"never referenced: {sorted(unreferenced)}"


# functions whose signature is a protocol every function of its kind shares:
# the local-search operators take (solution, instance, graph, config, seed)
PROTOCOL_SIGNATURES = {
    "operator_reassign_segments", "operator_postpone", "operator_prepone",
    "operator_insert_stop_random", "operator_insert_stop_shortest_detour",
    "operator_insert_stop_highest_sync", "operator_remove_stop",
}


def _functions(tree: ast.Module):
    """Top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def test_every_parameter_is_read():
    unread = []
    for path in MODULES:
        for name, fn in _functions(_tree(path)):
            if fn.name in PROTOCOL_SIGNATURES:
                continue
            args = fn.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            # a read anywhere in the body counts, nested closures included
            loaded = {n.id for stmt in fn.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{name}({p})" for p in params
                       if p not in loaded and p not in ("self", "cls")]
    assert not unread, f"parameters never read: {unread}"


# (module, class) of every settings record, of the B&B's result record and
# of the time graph's records; each field must have a reader
CONFIG_CLASSES = (("pipeline", "DbmhConfig"), ("search", "SearchConfig"),
                  ("mip", "SolverConfig"), ("generator", "GeneratorConfig"),
                  ("mip", "SolveOutcome"), ("timegraph", "TimedArc"),
                  ("timegraph", "TimedNode"))
# the graph dumps write every field of the graph's records, so a read there
# does not count
DUMPS = {"graph_to_dict", "graph_to_dot"}
# the benchmark still passes it, so the field stays until it stops
UNREAD_FIELDS = {"DbmhConfig.eta_mip"}


def test_every_config_field_is_read():
    trees = {path.stem: _tree(path) for path in MODULES}
    unread = []
    dumps = [n for n in trees["timegraph"].body
             if isinstance(n, ast.FunctionDef) and n.name in DUMPS]
    for module, name in CONFIG_CLASSES:
        cls = next(n for n in trees[module].body
                   if isinstance(n, ast.ClassDef) and n.name == name)
        own = {id(n) for node in (cls, *dumps) for n in ast.walk(node)}
        # an attribute read anywhere in src/ but in the class's own body and the dumps
        read = {n.attr for tree in trees.values() for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                and id(n) not in own}
        fields = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]
        unread += [f"{name}.{f}" for f in fields
                   if f not in read and f"{name}.{f}" not in UNREAD_FIELDS]
    assert not unread, f"fields never read: {unread}"
