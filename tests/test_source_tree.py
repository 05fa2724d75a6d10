"""Every top-level definition in the package is used by the package.

A function or class that only tests call is a second spelling of something
the package already does, or code no command needs; it belongs in
``tests/conftest.py`` or nowhere.  Library API that the package itself does
not call is named below with the reason it stays.
"""

import ast
import collections
import functools
import pathlib

import edgedrop

SRC = pathlib.Path(edgedrop.__file__).parent

ALLOWED = {
    "relabel_balanced": "the balanced-map relabeling, library API of criterion 8",
    "characterize_witness": "the group characterization of a witness, criterion 9",
    "restrict_to_product": "the product-set route, wrapped by perfbench/layers.py",
    "kernel": "groups API documented in README",
    "cosets": "groups API documented in README",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
