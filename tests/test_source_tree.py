"""Every top-level definition and every method in the package is used by
the package.

A function, class or method that only tests call is a second spelling of
something the package already does, or code no command needs; it belongs in
``tests/conftest.py`` or nowhere.  Library API that the package itself does
not call is named below with the reason it stays.
"""

import ast
import collections
import functools
import pathlib

import edgedrop

SRC = pathlib.Path(edgedrop.__file__).parent
LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

ALLOWED = {
    "restrict_to_product": "the product-set route, wrapped by perfbench/layers.py",
}

METHODS_ALLOWED = {
    "groups.FiniteGroup.op": "scalar group product, wrapped by perfbench/layers.py",
    "removal.SourcePartition.singletons": "built-in partition, wrapped by perfbench/layers.py",
    "removal.SourcePartition.whole": "built-in partition, wrapped by perfbench/layers.py",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node) -> set[str]:
    """Names a statement reads: bare names and attribute names.  Import
    statements bind names without using them, so they count for nothing."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


@functools.cache
def _callers() -> dict[str, int]:
    """Per top-level definition, as ``module.name``, the number of other
    top-level statements of the package that read its name."""
    definitions = []
    readers = collections.defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            where = (path.stem, i)
            if isinstance(stmt, DEFINITIONS):
                definitions.append((where, stmt.name))
            for name in _names(stmt):
                readers[name].add(where)
    return {
        f"{where[0]}.{name}": len(readers[name] - {where}) for where, name in definitions
    }


@functools.cache
def _method_callers() -> dict[str, int]:
    """Per method of a class of the package, as ``module.Class.name``, the
    number of attribute reads of its name in the package outside the
    method's own body.  A method is reached as an attribute, so a parameter
    or local that shares its name counts for nothing; the language calls
    the dunder methods, which are skipped."""
    reads = collections.Counter()
    methods = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                reads[node.attr] += 1
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("__"):
                        own = sum(isinstance(n, ast.Attribute) and n.attr == item.name for n in ast.walk(item))
                        methods.append((f"{path.stem}.{node.name}.{item.name}", item.name, own))
    return {qualified: reads[name] - own for qualified, name, own in methods}


def test_every_definition_has_a_caller_in_the_package():
    unused = [
        qualified
        for qualified, n in _callers().items()
        if not n and qualified.split(".")[1] not in ALLOWED
    ]
    assert not unused, f"no caller in the package: {', '.join(unused)}"


def test_allowed_names_are_defined_and_uncalled():
    """An allowlist entry whose definition is gone, or that the package now
    calls, is stale."""
    callers = {q.split(".")[1]: n for q, n in _callers().items()}
    assert {name: callers.get(name) for name in ALLOWED} == dict.fromkeys(ALLOWED, 0)


def test_every_method_has_a_caller_in_the_package():
    unused = [q for q, n in _method_callers().items() if not n and q not in METHODS_ALLOWED]
    assert not unused, f"no caller in the package: {', '.join(unused)}"


def test_allowed_methods_are_defined_and_uncalled():
    callers = _method_callers()
    assert {q: callers.get(q) for q in METHODS_ALLOWED} == dict.fromkeys(METHODS_ALLOWED, 0)


def test_entries_kept_for_perfbench_are_wrapped_there():
    """An allowlist entry kept because ``perfbench/layers.py`` wraps it must
    be named there, as a string or an attribute, or it keeps nothing alive."""
    tree = ast.parse(LAYERS.read_text())
    named = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    cited = [q for q, why in {**ALLOWED, **METHODS_ALLOWED}.items() if "perfbench/layers.py" in why]
    assert cited
    assert [q for q in cited if q.split(".")[-1] not in named] == []


def test_no_function_takes_a_table_beside_its_instance_or_code():
    """A global table carries the instance and code it enumerates; a
    function that also takes an ``inst`` or a ``code`` can be handed a table
    of another code and judge one code by the other's table."""
    both = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if "table" in params and params & {"inst", "code"}:
                    both.append(f"{path.stem}.{node.name}")
    assert not both, f"take a table beside an instance or code: {', '.join(both)}"
