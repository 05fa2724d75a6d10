"""Instance well-formedness, ordering and serialization checks."""

import dataclasses
import enum
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import as_lists, json_bytes
from edgedrop import network
from edgedrop.codes import NetworkCode, build_global_table, relay_instance, tabulate
from edgedrop.cwl import CwlWitness, check_cwl, check_piecewise
from edgedrop.errors import DomainError, PreconditionError
from edgedrop.groups import CyclicGroup, TableGroup, generated_subgroup, is_homomorphism, subgroup
from edgedrop.library import butterfly
from edgedrop.network import (
    Edge,
    NetworkInstance,
    Source,
    load_instance,
    parse_instance,
    remove_edge,
    save_instance,
    topological_order,
    validate_instance,
)
from edgedrop.removal import SourcePartition, restrict_to_product


def _line_instance():
    return NetworkInstance(
        nodes=("s1", "u", "t"),
        edges=(Edge("a", "s1", "u", 2), Edge("b", "u", "t", 2)),
        sources=(Source("s1", 2),),
        terminals=("t",),
        demands=((1,),),
    )


def test_valid_instance_reports_nothing():
    assert validate_instance(_line_instance()) == []


def test_validate_flags_cycle():
    inst = NetworkInstance(
        nodes=("s1", "u", "v", "t"),
        edges=(
            Edge("a", "s1", "u", 2),
            Edge("b", "u", "v", 2),
            Edge("c", "v", "u", 2),
            Edge("d", "v", "t", 2),
        ),
        sources=(Source("s1", 2),),
        terminals=("t",),
        demands=((1,),),
    )
    assert any("cycle" in p for p in validate_instance(inst))
    with pytest.raises(PreconditionError):
        topological_order(inst)


def test_validate_flags_structural_defects():
    base = _line_instance()
    bad_demand = NetworkInstance(
        base.nodes, base.edges, base.sources, base.terminals, ((0,),)
    )
    assert any("demands no source" in p for p in validate_instance(bad_demand))
    source_fed = NetworkInstance(
        base.nodes,
        base.edges + (Edge("back", "u", "s1", 2),),
        base.sources,
        base.terminals,
        base.demands,
    )
    assert any("incoming" in p for p in validate_instance(source_fed))
    dup = NetworkInstance(
        base.nodes,
        base.edges + (Edge("a", "s1", "u", 3),),
        base.sources,
        base.terminals,
        base.demands,
    )
    assert any("duplicate edge" in p for p in validate_instance(dup))
    stray = NetworkInstance(
        base.nodes,
        base.edges + (Edge("x", "s1", "ghost", 2),),
        base.sources,
        base.terminals,
        base.demands,
    )
    assert any("ghost" in p for p in validate_instance(stray))


@pytest.mark.parametrize("names", ["nodes", "edges", "sources", "terminals"])
def test_validate_names_each_repeated_name(names):
    """Every list of names refuses a repeat, the terminals too: a repeated
    terminal once left its second demand column unchecked.  Repeated nodes
    are reported as such, and once were reported as a cycle too."""
    base = _line_instance()
    repeated = {names: getattr(base, names) * 2}
    if names == "sources":
        repeated["demands"] = base.demands * 2
    if names == "terminals":
        repeated["demands"] = tuple(row * 2 for row in base.demands)
    expected = {
        "nodes": ["node 's1'", "node 'u'", "node 't'"],
        "edges": ["edge 'a'", "edge 'b'"],
        "sources": ["source 's1'"],
        "terminals": ["terminal 't'"],
    }[names]
    problems = validate_instance(dataclasses.replace(base, **repeated))
    assert problems == [f"duplicate {name}" for name in expected]


def test_demanded_sources_order():
    inst = NetworkInstance(
        nodes=("s1", "s2", "t1", "t2"),
        edges=(
            Edge("a", "s1", "t1", 2),
            Edge("b", "s2", "t1", 2),
            Edge("c", "s2", "t2", 2),
        ),
        sources=(Source("s1", 2), Source("s2", 2)),
        terminals=("t1", "t2"),
        demands=((1, 0), (1, 1)),
    )
    assert validate_instance(inst) == []
    assert inst.demanded_sources("t1") == (0, 1)
    assert inst.demanded_sources("t2") == (1,)
    with pytest.raises(DomainError):
        inst.demanded_sources("nope")


def test_in_edges_sorted_by_id():
    inst = NetworkInstance(
        nodes=("s1", "t"),
        edges=(Edge("z", "s1", "t", 2), Edge("a", "s1", "t", 2)),
        sources=(Source("s1", 2),),
        terminals=("t",),
        demands=((1,),),
    )
    assert [e.id for e in inst.in_edges("t")] == ["a", "z"]


def test_topological_order_on_butterfly():
    inst, _ = butterfly()
    order = [e.id for e in topological_order(inst)]
    pos = {e: i for i, e in enumerate(order)}
    for e in inst.edges:
        for f in inst.in_edges(e.tail):
            assert pos[f.id] < pos[e.id]
    # The bottleneck leaves the mixing node, after both feeds into it.
    assert pos["bottleneck"] > pos["b1"]
    assert pos["bottleneck"] > pos["b2"]


def test_remove_edge():
    inst, _ = butterfly()
    assert len(inst.edges) == 9
    smaller = remove_edge(inst, "bottleneck")
    assert len(smaller.edges) == 8
    assert validate_instance(smaller) == []
    assert smaller.nodes == inst.nodes
    with pytest.raises(DomainError):
        remove_edge(inst, "no-such-edge")


def test_instance_json_roundtrip(tmp_path):
    inst, _ = butterfly()
    path = tmp_path / "net.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst
    data = json.loads(path.read_text())
    assert parse_instance(data) == inst


def test_parse_instance_rejects_missing_fields():
    with pytest.raises(DomainError):
        parse_instance({"nodes": ["a"]})


@pytest.mark.parametrize("field", ["edge", "source"])
@pytest.mark.parametrize("value", [2.9, True, "3"], ids=["float", "bool", "string"])
def test_parse_instance_rejects_non_integer_alphabets(field, value):
    inst, _ = butterfly()
    data = json.loads(json_bytes(inst))
    data["edges" if field == "edge" else "sources"][0]["alphabet_size"] = value
    with pytest.raises(DomainError, match="must be an integer"):
        parse_instance(data)


@pytest.mark.parametrize("value", [1.0, True, "1"], ids=["float", "bool", "string"])
def test_parse_instance_rejects_non_integer_demands(value):
    inst, _ = butterfly()
    data = json.loads(json_bytes(inst))
    data["demands"][0][0] = value
    with pytest.raises(DomainError, match="demand entry"):
        parse_instance(data)


def _oracle_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _joined(tree, end: bytes = b"") -> bytes:
    """The bytes of ``json_text(tree, end)``, once its ``len``, which formats
    nothing, is seen to be their length."""
    text = network.json_text(tree, end)
    got = b"".join(text)
    assert len(text) == len(got)
    return got


_WIDE = st.integers(min_value=2**63, max_value=2**100) | st.integers(
    min_value=-(2**100), max_value=-(2**63)
)
_INTS = st.integers() | _WIDE
_TEXT = st.text() | st.text(st.characters(min_codepoint=0x80), min_size=1)
_SCALARS = st.none() | st.booleans() | _INTS | st.floats() | _TEXT
_INT_LISTS = st.lists(_INTS) | st.lists(_INTS | st.booleans(), min_size=1)
_RECT_ROWS = st.integers(0, 3).flatmap(
    lambda w: st.lists(st.lists(_INTS, min_size=w, max_size=w), min_size=1, max_size=6)
)
_RAGGED_ROWS = st.lists(st.lists(_INTS | st.booleans() | st.floats(), max_size=3), max_size=6)
_JSON_TREES = st.recursive(
    _SCALARS | _INT_LISTS | _RECT_ROWS | _RAGGED_ROWS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=24,
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_JSON_TREES)
# Exact ints take their own path; bools, None and floats go through json.
@example([True, False, None, 0, -1, 2**100, 1.5])
@example({"t": True, "f": False, "n": None, "0": 0, "-1": -1, "big": 2**100, "x": 1.5})
def test_json_bytes_matches_json_dumps(tree):
    assert _joined(tree).decode() == _oracle_json(tree)


_INT64 = st.integers(-(2**63), 2**63 - 1)
# Both sides of every power of ten, the extremes, and -2**63, whose
# magnitude int64 lacks.
_DIGIT_EDGES = st.sampled_from(
    sorted({s * (10**k + d) for k in range(19) for d in (-1, 0) for s in (1, -1)})
    + [2**63 - 1, -(2**63 - 1), -(2**63)]
)


@st.composite
def _array_trees(draw):
    """One array of each shape the writer tells apart, nested in dicts and
    lists: the ones it writes (int64, 1-D or rows of width >= 1) and the ones
    it hands to the list path, with row counts around its size threshold and
    its chunk."""
    least, chunk = network._ARRAY_ENTRIES, network._WRITE_ROWS
    rows = st.integers(0, 3) | st.sampled_from([least - 1, least, chunk - 1, chunk, chunk + 1])

    def array(shape_of):
        shape = shape_of(draw(rows))
        palette = draw(st.lists(_INT64 | _DIGIT_EDGES | st.integers(-12, 12), min_size=1, max_size=6))
        if draw(st.booleans()):  # the writer writes only arrays with no negative entry
            palette = [abs(v) for v in palette if v > -(2**63)] or [0]
        picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = picks.choice(np.array(palette, dtype=np.int64), size=int(np.prod(shape)))
        dtype = draw(st.sampled_from([np.int64, np.int64, np.int32, np.uint8, np.bool_]))
        return values.astype(dtype).reshape(shape)

    return {
        "flat": array(lambda n: (n,)),
        "rows": [array(lambda n: (n, 1)), {"wide": array(lambda n: (n, 3))}],
        "empty rows": [[array(lambda n: (n, 0))]],
        "cube": array(lambda n: (2, n, 2)),
    }


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(_array_trees())
@example(
    {
        "min": np.array([-(2**63)] + [5] * network._ARRAY_ENTRIES),
        "edge": -np.arange(3 * network._WRITE_ROWS + 3).reshape(-1, 3),
    }
)
# Entries that all have the widest digit count leave no padding to strip,
# on the four-digit lookup path and on the division path.
@example(
    {
        "four": np.random.default_rng(1).integers(1000, 10**4, network._WRITE_ROWS + 1),
        "six": np.random.default_rng(2).integers(10**5, 10**6, (network._WRITE_ROWS + 1, 3)),
    }
)
# One 19-digit entry, in the last block, pads every other entry by 18 NULs.
@example(
    {
        "flat": np.append(np.arange(network._WRITE_ROWS) % 10, 10**18 + 7),
        "rows": np.vstack([np.arange(2 * network._WRITE_ROWS).reshape(-1, 2) % 10, [[3, 2**63 - 1]]]),
    }
)
def test_json_bytes_writes_arrays_as_their_lists(tree):
    got, want = _joined(tree).decode(), _oracle_json(as_lists(tree))
    # Lines first: pytest's diff of two texts this long takes minutes.
    assert got.splitlines() == want.splitlines()
    assert got == want


def _big_array(seed: int, rows: int, width: int, scale: int) -> np.ndarray:
    values = np.random.default_rng(seed).integers(0, scale, rows * max(width, 1))
    return values.reshape(rows, width) if width else values


# int64 arrays that json_bytes splices in: 1-D, or rows of width 1 to 3,
# with no negative entry.
_SPLICED = st.builds(
    _big_array,
    st.integers(0, 2**32 - 1),
    st.integers(network._ARRAY_ENTRIES, 400) | st.just(network._WRITE_ROWS + 1),
    st.integers(0, 3),
    st.sampled_from([10, 10**4, 10**18]),
)
_NUL_TEXT = st.text(st.sampled_from('\0a\u00e9"\n'), max_size=4) | st.just("\0")
_SPLICED_TREES = st.recursive(
    _SPLICED | _NUL_TEXT | st.integers(),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_NUL_TEXT, kids, max_size=3),
    max_leaves=8,
)


@st.composite
def _nested_arrays(draw):
    """Spliced arrays at depths one to four, in dicts and lists, beside
    strings and keys that hold NULs, and a random tree of the same parts."""
    big, text = (lambda: draw(_SPLICED)), (lambda: draw(_NUL_TEXT))
    return {
        "\0": big(),
        "list\0": [big(), text(), {"a\0b": big(), "rows": [[big(), text()]]}],
        text(): draw(_SPLICED_TREES),
    }


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_nested_arrays())
def test_json_bytes_splices_arrays_into_the_skeleton(tree):
    want = _oracle_json(as_lists(tree)).encode()
    got = _joined(tree, b"\n")
    assert got.splitlines() == want.splitlines()
    assert got == want + b"\n" and _joined(tree) == want


@pytest.mark.parametrize("lowest", [-1, -(2**63)], ids=["negative", "int64-min"])
@pytest.mark.parametrize("shape", [(300,), (100, 3), (2 * network._WRITE_ROWS, 1)])
def test_arrays_with_a_negative_entry_take_the_list_path(lowest, shape):
    """Such an array is written into the skeleton, which is one block."""
    arr = np.arange(np.prod(shape), dtype=np.int64).reshape(shape)
    arr.flat[arr.size // 2] = lowest
    text = network.json_text({"t": arr})
    want = _oracle_json({"t": arr.tolist()}).encode()
    assert list(text) == [want] and len(text) == len(want)


class _Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize(
    "obj",
    [
        [[], {}, [[]], {"a": {}}, [[], []]],
        [[1, 2], (3, 4)],
        ((1, 2), (3, 4)),
        [[True, 1], [0, False]],
        [[1, 2], [3]],
        [_Level.LOW, 2],
        {_Level.LOW: 1, 2: [np.float64(0.5)]},
        {1: "a", -2: [True], 10**30: None},
        {True: 0, False: 1},
        {None: 2},
        {None: 2, True: 0},
        {1.5: [], float("nan"): {}, float("-inf"): 0},
        {"a": 1, 2: 3},
        {(1, 2): 0},
        {"k": {1, 2}},
        [object()],
        {"x": b"bytes"},
        [np.int64(3)],
        [[np.int64(3), 1]],
    ],
)
def test_json_bytes_converts_or_rejects_like_json_dumps(obj):
    def outcome(fn):
        try:
            return fn(obj)
        except TypeError as exc:
            return str(exc)

    assert outcome(lambda o: json_bytes(o).decode()) == outcome(_oracle_json)


@dataclasses.dataclass(frozen=True)
class _Record:
    ratio: Fraction
    rows: tuple
    inner: object = None


def test_json_bytes_writes_fractions_and_records_as_their_fields():
    """A Fraction is its str, and a dataclass record the object of its
    declared fields, nested records too; a cached property is not a field."""
    inst, code = butterfly()
    inst.edge("bottleneck")  # fills the cached property _edge_by_id
    record = _Record(Fraction(-3, 4), ((1, 2), (3, 4)), [inst, Fraction(0)])
    fields = ("nodes", "edges", "sources", "terminals", "demands")
    inst_tree = {name: getattr(inst, name) for name in fields}
    inst_tree["edges"] = [dataclasses.asdict(e) for e in inst.edges]
    inst_tree["sources"] = [dataclasses.asdict(s) for s in inst.sources]
    tree = {"ratio": "-3/4", "rows": [[1, 2], [3, 4]], "inner": [inst_tree, "0"]}
    assert json_bytes(record).decode() == _oracle_json(tree)
    code_fields = ("blocklength", "source_alphabets", "edge_alphabets", "encoders", "decoders")
    assert json_bytes(code) == json_bytes({name: getattr(code, name) for name in code_fields})


def test_json_bytes_looks_up_no_fields_for_scalars():
    network._field_names.cache_clear()
    json_bytes([1, "a", None, 1.5, True, _Level.LOW, {"k": [2, -3]}, [[1, 2], [3, 4]]])
    assert network._field_names.cache_info().misses == 0
    json_bytes([_Record(1, ()), _Record(2, ())])  # one lookup a class, cached
    info = network._field_names.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# Library entry points that take an integer table, each with the caller's
# table in the one slot it fills: flat over four tuples or elements, or the
# rows of a 2-D table.
def _entry_points():
    z4 = CyclicGroup(4)
    flat = {
        "NetworkCode-encoder": lambda t: NetworkCode(1, (4,), {"e": 4}, {"e": t}, {}),
        "relay_instance": lambda t: relay_instance([4], 4, t),
        "check_cwl": lambda t: check_cwl(t, [z4], z4, (0, 1, 2, 3)),
        "CwlWitness-hom": lambda t: CwlWitness((z4,), z4, (0, 1, 2, 3), t),
        "CwlWitness-support": lambda t: CwlWitness((z4,), z4, t, np.arange(4)),
        "subgroup": lambda t: subgroup(z4, t),
        "generated_subgroup": lambda t: generated_subgroup(z4, t),
        "SourcePartition": lambda t: SourcePartition([4], t),
        "is_homomorphism": lambda t: is_homomorphism(t, z4, z4),
    }
    rows = {
        "NetworkCode-decoder": lambda t: NetworkCode(1, (2,), {}, {}, {"t": t}),
        "TableGroup": TableGroup,
    }
    return flat, rows


BAD_FLAT = {
    "bools": [True, False, True, False],
    "bool-array": np.array([True, False, False, False]),
    "floats": [0.0, 2.9, 0.0, 2.0],
    "float-array": np.array([0.0, 1.0, 2.0, 3.0]),
    "strings": ["0", "1", "2", "3"],
    "string": "0123",
    "none": None,
    "none-entry": [0, None, 0, 0],
    "mapping": {0: 0, 1: 1, 2: 2, 3: 3},
    "beyond-int64": [0, 1, 2, 2**64],
    "uint64-beyond-int64": np.array([2**63, 0, 0, 0], dtype=np.uint64),
    "numpy-uint64-beyond-int64": [np.uint64(2**63), 0, 0, 0],
    "nested": [[0], [1], [2], [3]],
    "2-d-array": np.zeros((4, 1), dtype=np.int64),
}
BAD_ROWS = {
    "bools": [[True, False], [False, True]],
    "floats": [[0.7, 1.2], [1.0, 0.0]],
    "float-array": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "strings": [["0", "1"], ["1", "0"]],
    "string": "0110",
    "none": None,
    "mapping": {0: [0, 1], 1: [1, 0]},
    "ragged": [[0, 1], [1]],
    "flat": [0, 1, 1, 0],
    "flat-array": np.arange(4),
    "rows-of-2-d-arrays": [np.zeros((2, 1), dtype=np.int64)] * 2,
    "beyond-int64": [[0, 1], [1, 2**64]],
    "uint64-beyond-int64": np.array([[0, 2**63], [2**63, 0]], dtype=np.uint64),
}
# Inputs that an entry point takes by design: a boolean mask of members,
# and string labels.
ALLOWED = {("subgroup", "bool-array"), ("SourcePartition", "strings")}


def _probes():
    """Entry points that take one symbol set or class map per source, each
    with one bad set among good ones."""
    inst, code = relay_instance([4, 3], 2, tabulate([4, 3], lambda a, b: a % 2))
    table = build_global_table(inst, code)
    z2, phi = CyclicGroup(2), (0, 1, 1, 0)
    product = lambda s: restrict_to_product(table, "e", s, Fraction(0))
    return {
        "restrict_to_product-floats": (product, [[0.0, 2.0], [0, 1, 2]]),
        "restrict_to_product-bools": (product, [[True, False], [0, 1, 2]]),
        "check_piecewise-floats": (
            lambda s: check_piecewise(phi, [z2, z2], (0, 1), [(s, phi)]),
            [[0.0, 1.0], [0.0, 1.0]],
        ),
        "from_source_classes-none": (
            lambda c: SourcePartition.from_source_classes((2, 2), c),
            [[0, 1], None],
        ),
        # The outer container, one entry per source, is gated too.
        "restrict_to_product-outer-none": (product, None),
        "restrict_to_product-outer-int": (product, 5),
        "from_source_classes-outer-none": (
            lambda c: SourcePartition.from_source_classes((2, 2), c),
            None,
        ),
    }


def _gate_cases():
    flat, rows = _entry_points()
    for points, bad in ((flat, BAD_FLAT), (rows, BAD_ROWS)):
        for entry, call in points.items():
            for name, value in bad.items():
                if (entry, name) not in ALLOWED:
                    yield pytest.param(call, value, id=f"{entry}-{name}")
    for name, (call, value) in _probes().items():
        yield pytest.param(call, value, id=name)


@pytest.mark.parametrize("call, value", _gate_cases())
def test_library_entry_points_refuse_what_input_files_may_not_hold(call, value):
    """Every table a caller hands in passes ``int_table``: refused, never
    coerced, as the same value in an input file is."""
    with pytest.raises(DomainError):
        call(value)


def test_int_table_shares_read_only_int64_and_copies_the_rest():
    frozen = np.arange(4)
    frozen.flags.writeable = False
    assert network.int_table(frozen, 1, "t") is frozen
    writable = np.arange(4)
    got = network.int_table(writable, 1, "t")
    assert not np.shares_memory(got, writable) and not got.flags.writeable
    assert writable.flags.writeable
    writable[0] = 7
    assert got.tolist() == [0, 1, 2, 3]
    narrow = network.int_table(np.array([[1, 2]], dtype=np.uint8), 2, "t")
    assert narrow.dtype == np.int64 and narrow.tolist() == [[1, 2]]
    rows = network.int_table([np.arange(2), (np.int32(1), np.uint64(2**63 - 1))], 2, "t")
    assert rows.dtype == np.int64 and rows.tolist() == [[0, 1], [1, 2**63 - 1]]
    assert network.int_table([], 2, "t").shape == (0, 0)


def test_code_tables_share_read_only_arrays():
    table = np.arange(4)
    table.flags.writeable = False
    assert NetworkCode(1, (4,), {"e": 4}, {"e": table}, {}).encoders["e"] is table
