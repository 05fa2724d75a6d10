"""Malformed input files: every one is a usage error (exit 2) whose message
names the path or the field, never a Python exception's repr.

The cases edit copies of the files under ``tests/golden/inputs``; the two
fuzzes at the end mutate, at random, the side files (group, pieces, label
and characterization files) of the golden commands, and the instance and
code files of every command that reads a code.
"""

import contextlib
import copy
import io
import json
import re
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgedrop import network
from edgedrop.cli import main

GOLDEN = Path(__file__).parent / "golden" / "inputs"
EXCEPTION_REPR = re.compile(
    r"\b[A-Z]\w*(Error|Exception)\(|Traceback|internal error|malformed \w+ data"
)


def _golden(name: str):
    return json.loads((GOLDEN / name).read_text())


def _run(argv) -> tuple[int, str]:
    """Exit status and stderr, without the elapsed line, of one command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    lines = err.getvalue().splitlines()
    assert lines[-1].startswith("elapsed ")
    return status, "\n".join(lines[:-1])


# Each command with its side file replaced by the file at path.
COMMANDS = {
    "shift44.pieces.json": lambda path: [
        "pwl-remove", str(GOLDEN / "shift44.instance.json"), str(GOLDEN / "shift44.code.json"),
        "--edge", "e", "--pieces", path,
    ],
    "klein.json": lambda path: ["group-remove", path, "--edge", "e", "--sources", "s1,s2"],
    "z4z4.json": lambda path: ["group-zero-error", path, "--demand", "f:s1", "--demand", "k:s1"],
    "butterfly.instance.json": lambda path: ["validate", path],
    "butterfly.code.json": lambda path: [
        "verify", str(GOLDEN / "butterfly.instance.json"), path, "--rates", "1,1",
    ],
    "butterfly.groups.json": lambda path: [
        "cwl-check", str(GOLDEN / "butterfly.instance.json"), str(GOLDEN / "butterfly.code.json"),
        "--edge", "bottleneck", "--groups", path,
    ],
    "sum44.parity.json": lambda path: [
        "remove-edge", str(GOLDEN / "sum44.instance.json"), str(GOLDEN / "sum44.code.json"),
        "--edge", "e", "--partition", path,
    ],
}


def _set(path, value):
    def edit(doc):
        reduce(getitem, path[:-1], doc)[path[-1]] = value
    return edit


def _delete(path):
    def edit(doc):
        del reduce(getitem, path[:-1], doc)[path[-1]]
    return edit


PIECES, KLEIN, INSTANCE, CODE = (
    "shift44.pieces.json", "klein.json", "butterfly.instance.json", "butterfly.code.json"
)


@pytest.mark.parametrize(
    "name, edit, message",
    [
        (PIECES, _set(("pieces", 0, "subsets"), 5), "piece 0 'subsets' must be a list, got 5"),
        (PIECES, _delete(("pieces", 0, "subsets")), "piece 0 description is missing 'subsets'"),
        (PIECES, _set(("sources",), 5), "pieces file 'sources' must be a list, got 5"),
        (PIECES, _set(("pieces", 0, "phi"), 5), "piece 0 'phi' must be a list, got 5"),
        (PIECES, _set(("pieces",), 5), "pieces file 'pieces' must be a list, got 5"),
        (PIECES, _set(("pieces", 0), 5), "piece 0 must be an object, got 5"),
        (PIECES, _set(("pieces", 0, "subsets", 1), 5), "piece 0 subset 1 must be a list, got 5"),
        (KLEIN, _set(("subgroups",), []), "characterization 'subgroups' must be an object, got []"),
        (KLEIN, _set(("subgroups", "e"), 5), "subgroup 'e' must be a list, got 5"),
        (KLEIN, _set(("subgroups", "e", 1), 2**64), "an element id is outside group of order 4"),
        (KLEIN, _set(("group",), 5), "characterization 'group' must be an object, got 5"),
        (KLEIN, _set(("group", "factors", 0), 5), "group description must be an object, got 5"),
        (KLEIN, _delete(("group", "kind")), "group description is missing 'kind'"),
        (INSTANCE, _set(("nodes",), 5), "instance 'nodes' must be a list, got 5"),
        (INSTANCE, _set(("edges", 0), 5), "edge 0 must be an object, got 5"),
        (INSTANCE, _set(("edges", 1, "tail"), 5), "edge 1 'tail' must be a string, got 5"),
        (INSTANCE, _set(("sources", 0, "node"), 0), "source 0 'node' must be a string, got 0"),
        (INSTANCE, _set(("demands", 0), 5), "demand row 0 must be a list, got 5"),
        (CODE, _set(("encoders",), 5), "code 'encoders' must be an object, got 5"),
        (CODE, _delete(("blocklength",)), "code description is missing 'blocklength'"),
        ("sum44.parity.json", _delete(("labels",)), "labels file description is missing 'labels'"),
        (CODE, _set(("encoders", "nope"), [5, 5]), "code has encoder tables for unknown edges"),
        (CODE, _set(("decoders", "zz"), [[0]]), "code has decoder tables for unknown terminals"),
    ],
)
def test_malformed_files_name_the_field(tmp_path, name, edit, message):
    doc = _golden(name)
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    status, err = _run(COMMANDS[name](str(path)))
    assert status == 2
    assert err == f"error: {message}"


@pytest.mark.parametrize(
    "command, options",
    [
        ("verify", ["--rates", "1,1"]),
        ("remove-edge", ["--edge", "bottleneck", "--partition", "builtin:cwl"]),
        ("cwl-check", ["--edge", "bottleneck"]),
        ("cwl-search", ["--edge", "bottleneck"]),
    ],
)
@pytest.mark.parametrize(
    "edit, message",
    [
        (_delete(("edge_alphabets", "a1")), "edge 'a1' has no alphabet"),
        (_set(("source_alphabets",), [2]), "one source alphabet per instance source is required"),
    ],
    ids=["edge", "source"],
)
def test_codes_missing_an_alphabet_exit_2(tmp_path, command, options, edit, message):
    """The table checks read the alphabets, so they are skipped once one is
    missing; the missing alphabet alone is reported."""
    doc = _golden(CODE)
    edit(doc)
    path = tmp_path / CODE
    path.write_text(json.dumps(doc))
    argv = [command, str(GOLDEN / INSTANCE), str(path)] + options
    assert _run(argv) == (2, f"error: {message}")


# Every command that reads a code, on a golden instance and code pair.
CODE_COMMANDS = {
    "verify": ("butterfly", ["--rates", "1,1"]),
    "remove-edge-cwl": ("butterfly", ["--edge", "bottleneck", "--partition", "builtin:cwl"]),
    "remove-edge-value": (
        "butterfly", ["--edge", "bottleneck", "--partition", "builtin:edge-value"]
    ),
    "remove-edge-labels": (
        "sum44", ["--edge", "e", "--partition", str(GOLDEN / "sum44.parity.json")]
    ),
    "cwl-check": ("butterfly", ["--edge", "bottleneck"]),
    "cwl-search": ("butterfly", ["--edge", "bottleneck"]),
    "pwl-remove": ("shift44", ["--edge", "e", "--pieces", str(GOLDEN / "shift44.pieces.json")]),
}


def _code_command(command: str, instance: str, code: str) -> list[str]:
    """The argv of a ``CODE_COMMANDS`` entry on the given files."""
    name = "remove-edge" if command.startswith("remove-edge") else command
    return [name, instance, code] + CODE_COMMANDS[command][1]


@pytest.mark.parametrize("command", CODE_COMMANDS)
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["nodes"].remove("s2"), "source node 's2' is not a node"),
        (
            lambda doc: doc.update(demands=doc["demands"][:1]),
            "demand matrix must have one row per source",
        ),
        (_set(("edges", 0, "tail"), "nowhere"), "tail 'nowhere' is not a node"),
    ],
    ids=["no-s2-node", "one-demand-row", "tail-nowhere"],
)
def test_invalid_instances_exit_2_before_the_code_is_checked(tmp_path, command, edit, message):
    """The code checks assume a valid instance, so the instance's own
    problems are reported alone."""
    pair = CODE_COMMANDS[command][0]
    doc = _golden(f"{pair}.instance.json")
    edit(doc)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    status, err = _run(_code_command(command, str(path), str(GOLDEN / f"{pair}.code.json")))
    assert status == 2 and err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("name", [KLEIN, INSTANCE, CODE])
def test_files_that_are_not_objects_name_the_path(tmp_path, name):
    path = tmp_path / name
    path.write_text(json.dumps([_golden(name)]))
    assert _run(COMMANDS[name](str(path))) == (2, f"error: {path}: expected a JSON object")


def _large_code_text() -> str:
    """The butterfly code behind enough spaces to reach ``FAST_READ_BYTES``,
    so that the byte-level table reader reads it first."""
    return " " * network.FAST_READ_BYTES + (GOLDEN / "butterfly.code.json").read_text()


@pytest.mark.parametrize("name", [INSTANCE, CODE])
@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda text: "[" * 100_000, "JSON nested too deeply to decode"),
        (lambda text: text.replace("[", "[" * 3000, 1), "JSON nested too deeply to decode"),
        (lambda text: text.replace('"', '"\xff', 1), "not UTF-8 text"),
        (lambda text: text.rstrip()[:-1], "invalid JSON: Expecting"),
    ],
    ids=["nested", "nested-inside", "latin-1", "truncated"],
)
def test_undecodable_files_name_the_path(tmp_path, name, damage, message):
    text = _large_code_text() if name == CODE else (GOLDEN / name).read_text()
    path = tmp_path / name
    path.write_bytes(damage(text).encode("latin-1"))
    status, err = _run(COMMANDS[name](str(path)))
    assert status == 2
    assert err.startswith(f"error: {path}: {message}")


# Values a mutation puts in place of one field, list entry or whole file.
REPLACEMENTS = [
    5, -1, 0, 2**64, 1.5, True, None, "x", "", [], {}, [0], [[0]], {"kind": "cyclic", "order": 2}
]


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(value, path + (key,))


@st.composite
def mutated(draw, name):
    """A golden side file with one to three fields replaced or deleted."""
    doc = {"file": _golden(name)}
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        if draw(st.booleans()) and len(path) > 1:
            _delete(path)(doc)
        else:
            _set(path, copy.deepcopy(draw(st.sampled_from(REPLACEMENTS))))(doc)
    return name, json.dumps(doc["file"])


SIDE_FILES = ["butterfly.groups.json", PIECES, "sum44.parity.json", KLEIN, "z4z4.json"]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(SIDE_FILES).flatmap(mutated))
def test_mutated_side_files_exit_0_1_or_2_with_a_plain_message(tmp_path_factory, case):
    name, text = case
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_text(text)
    status, err = _run(COMMANDS[name](str(path)))
    assert status in (0, 1, 2), err
    assert not EXCEPTION_REPR.search(err), err


@st.composite
def mutated_pair(draw):
    """A code-reading command with its instance or its code file mutated."""
    command = draw(st.sampled_from(list(CODE_COMMANDS)))
    kind = draw(st.sampled_from(["instance", "code"]))
    return command, kind, draw(mutated(f"{CODE_COMMANDS[command][0]}.{kind}.json"))[1]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutated_pair())
def test_mutated_instance_and_code_files_exit_0_1_or_2_with_a_plain_message(
    tmp_path_factory, case
):
    command, kind, text = case
    pair = CODE_COMMANDS[command][0]
    files = {k: str(GOLDEN / f"{pair}.{k}.json") for k in ("instance", "code")}
    files[kind] = str(tmp_path_factory.mktemp("fuzz") / f"{kind}.json")
    Path(files[kind]).write_text(text)
    status, err = _run(_code_command(command, files["instance"], files["code"]))
    assert status in (0, 1, 2), err
    assert not EXCEPTION_REPR.search(err), err
