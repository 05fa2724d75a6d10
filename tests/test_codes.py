"""Code evaluation oracles: hand-traced butterflies, relays and joint counts."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    decode_outputs,
    evaluate_global,
    joint_counts,
    json_bytes,
    oracle_digits,
    oracle_index,
    random_code,
    random_instance,
    relay_with_entry,
    scalar_table,
)
from edgedrop.codes import (
    NetworkCode,
    build_global_table,
    check_feasibility,
    index_digits,
    load_code,
    pack,
    parse_code,
    product_indices,
    relay_instance,
    save_code,
    tabulate,
    validate_code,
)
from edgedrop.errors import DomainError, ResourceError
from edgedrop.library import butterfly
from edgedrop.network import Edge, NetworkInstance, Source


def test_mixed_radix_roundtrip():
    sizes = (3, 2, 4)
    assert pack((0, 0, 0), sizes) == 0
    assert pack((0, 0, 1), sizes) == 1  # last coordinate fastest
    assert pack((1, 0, 0), sizes) == 8
    assert pack((2, 1, 3), sizes) == 23
    for idx in range(24):
        assert pack(index_digits(idx, sizes), sizes) == idx
    assert index_digits(0, ()) == [] and pack((), ()) == 0


@st.composite
def _radix_cases(draw):
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    idx = draw(st.integers(0, math.prod(sizes) - 1))
    subsets = [draw(st.lists(st.integers(0, s - 1), min_size=1, unique=True)) for s in sizes]
    return sizes, idx, subsets


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_radix_cases())
def test_pack_inverts_index_digits_and_matches_the_scalar_oracle(case):
    sizes, idx, subsets = case
    digits = index_digits(idx, sizes)
    assert all(type(d) is int for d in digits)  # ints stay ints
    assert tuple(digits) == oracle_digits(idx, sizes)
    assert pack(digits, sizes) == idx == oracle_index(digits, sizes)
    # Broadcast shapes: a column of every index, and digits on crossed axes.
    total = math.prod(sizes)
    column = np.arange(total, dtype=np.int64)[:, None]
    columns = index_digits(column, sizes)
    assert all(d.shape == (total, 1) for d in columns)
    assert np.array_equal(pack(columns, sizes), column)
    assert [tuple(d[idx, 0] for d in columns)] == [oracle_digits(idx, sizes)]
    expected = [oracle_index(t, sizes) for t in itertools.product(*subsets)]
    assert product_indices(subsets, sizes).tolist() == expected


def test_tabulate_matches_function():
    table = tabulate([2, 3], lambda a, b: a * 3 + b)
    assert table == tuple(range(6))


def test_butterfly_code_is_valid_and_zero_error():
    inst, code = butterfly()
    assert validate_code(inst, code) == []
    table = build_global_table(inst, code)
    assert table.num_tuples == 4
    assert table.error == 0
    assert all(table.good)


def test_butterfly_trace_by_hand():
    inst, code = butterfly()
    row = evaluate_global(inst, code, (1, 0))
    values = {e.id: v for e, v in zip(inst.edges, row)}
    # Messages are copies of the sources until the mix; the bottleneck xors.
    assert values["a1"] == 1
    assert values["a2"] == 0
    assert values["bottleneck"] == 1
    assert values["c1"] == 1
    assert values["d1"] == 1
    outputs = decode_outputs(inst, code, row)
    assert outputs["t1"] == (1, 0)
    assert outputs["t2"] == (1, 0)


def test_constant_decoder_error_fraction():
    inst, code = butterfly()
    decoders = {t: tuple((0, 0) for _ in rows) for t, rows in code.decoders.items()}
    frozen = NetworkCode(
        code.blocklength,
        code.source_alphabets,
        code.edge_alphabets,
        code.encoders,
        decoders,
    )
    table = build_global_table(inst, frozen)
    # Only the all-zero tuple survives a constant (0, 0) answer.
    assert table.error == Fraction(3, 4)
    assert table.terminal_error("t1") == Fraction(3, 4)


def test_relay_instance_shape_and_distribution():
    xor = tabulate([2, 2], lambda a, b: a ^ b)
    inst, code = relay_instance([2, 2], 2, xor)
    assert validate_code(inst, code) == []
    table = build_global_table(inst, code)
    assert table.error == 0
    assert table.edge_values("e").tolist() == list(xor)
    with pytest.raises(DomainError):
        relay_instance([2, 2], 2, xor[:-1])


def test_feasibility_verdicts():
    inst, code = butterfly()
    ok = check_feasibility(build_global_table(inst, code), Fraction(0), (2, 2))
    assert ok.verdict
    assert ok.error == 0
    too_much = check_feasibility(build_global_table(inst, code), Fraction(0), (4, 2))
    assert not too_much.verdict
    assert too_much.rate_ok == (False, True)
    with pytest.raises(DomainError):
        check_feasibility(build_global_table(inst, code), Fraction(1), (2, 2))
    with pytest.raises(DomainError):
        check_feasibility(build_global_table(inst, code), Fraction(0), (2,))


def test_zero_eps_requires_exactly_zero_error():
    inst, code = butterfly()
    decoders = dict(code.decoders)
    rows = list(decoders["t1"])
    rows[0] = (1, 1)  # corrupt one entry out of four inputs
    decoders["t1"] = tuple(rows)
    dented = NetworkCode(
        code.blocklength,
        code.source_alphabets,
        code.edge_alphabets,
        code.encoders,
        decoders,
    )
    table = build_global_table(inst, dented)
    assert table.terminal_error("t1") == Fraction(1, 4)
    assert not check_feasibility(table, Fraction(0), (2, 2)).verdict
    # The strict inequality means eps = 1/4 is still not enough.
    report = check_feasibility(table, Fraction(1, 4), (2, 2))
    assert not report.verdict
    assert check_feasibility(table, Fraction(1, 3), (2, 2)).verdict


def test_enum_cap_refuses_large_spaces():
    xor = tabulate([2, 2], lambda a, b: a ^ b)
    inst, code = relay_instance([2, 2], 2, xor)
    with pytest.raises(ResourceError):
        build_global_table(inst, code, enum_cap=3)


def test_code_json_roundtrip(tmp_path):
    inst, code = butterfly()
    path = tmp_path / "code.json"
    save_code(code, path)
    again = load_code(path)
    assert json_bytes(again) == json_bytes(code)
    assert validate_code(inst, again) == []


def test_parse_code_rejects_garbage():
    with pytest.raises(DomainError):
        parse_code({"blocklength": 1})


def test_validate_code_reports_mismatches():
    inst, code = butterfly()
    wrong = NetworkCode(
        code.blocklength,
        (2, 3),
        code.edge_alphabets,
        code.encoders,
        code.decoders,
    )
    assert any("source 1" in p for p in validate_code(inst, wrong))
    missing = NetworkCode(
        code.blocklength,
        code.source_alphabets,
        code.edge_alphabets,
        {k: v for k, v in code.encoders.items() if k != "bottleneck"},
        code.decoders,
    )
    assert any("no encoder" in p for p in validate_code(inst, missing))


_RANGE_PROBLEMS = {
    "e": "edge 'e' encoder maps outside its alphabet",
    0: "terminal 't' decoder maps outside source alphabets",
    1: "terminal 't' decoder maps outside source alphabets",
}


@pytest.mark.parametrize("table", ["e", 0, 1], ids=["encoder", "decoder-col0", "decoder-col1"])
@pytest.mark.parametrize("value", [-1, "size", -(2**63)], ids=["minus-one", "size", "int64-min"])
def test_validate_code_names_entries_outside_their_alphabet(table, value):
    """Codes built from lists, each with one entry out of range; the size of
    a column is its edge's alphabet (3) or its source's (3, then 5)."""
    inst, code = relay_instance([3, 5], 3, tabulate([3, 5], lambda a, b: (a + b) % 3))
    size = code.edge_alphabets["e"] if table == "e" else code.source_alphabets[table]
    bad = relay_with_entry(code, table, size if value == "size" else value)
    assert validate_code(inst, bad) == [_RANGE_PROBLEMS[table]]
    assert validate_code(inst, relay_with_entry(code, table, size - 1)) == []


@pytest.mark.parametrize(
    "alphabet, entry, outside",
    [
        (2**63 - 1, 2**63 - 1, True),
        (2**63, 2**63 - 1, False),
        (2**70, 2**63 - 1, False),
        (2**63, -1, True),
        (2**64, -1, True),
        (2**70, -(2**63), True),
    ],
)
def test_alphabets_of_2_to_the_63_and_above_still_refuse_negative_entries(alphabet, entry, outside):
    """A source of two symbols sends them on one edge of a wide alphabet;
    the encoder's range is checked whatever the alphabet's size."""
    inst = NetworkInstance(
        nodes=("s", "t"),
        edges=(Edge("e", "s", "t", alphabet),),
        sources=(Source("s", 2),),
        terminals=("t",),
        demands=((1,),),
    )
    code = NetworkCode(1, (2,), {"e": alphabet}, {"e": [0, entry]}, {"t": [[0], [1]]})
    # The decoder's length is checked against the alphabet too, and fails.
    problems = validate_code(inst, code)
    assert ("edge 'e' encoder maps outside its alphabet" in problems) == outside


def _oracle_corpus():
    """The conftest random codes plus sum-mod-q relays, clean and corrupted."""
    rng = random.Random(99)
    for _ in range(25):
        inst = random_instance(rng)
        yield inst, random_code(rng, inst)
    for sizes, q in (([4, 4, 2], 4), ([3, 5], 3), ([2, 2, 2, 4], 2)):
        inst, code = relay_instance(sizes, q, tabulate(sizes, lambda *x: sum(x) % q))
        yield inst, code
        rows = code.decoders["t"].tolist()
        for r in rng.sample(range(len(rows)), 5):
            rows[r] = [(v + 1) % s for v, s in zip(rows[r], sizes)]
        yield inst, NetworkCode(1, code.source_alphabets, code.edge_alphabets,
                                code.encoders, {"t": rows})


def test_random_codes_validate_and_tabulate():
    for inst, code in _oracle_corpus():
        assert validate_code(inst, code) == []
        table = build_global_table(inst, code)
        assert table.num_tuples == math.prod(code.source_alphabets)
        # Every tuple agrees with the scalar oracle, rows and wrong sets alike.
        rows, wrong = scalar_table(inst, code)
        assert table.rows.tolist() == rows
        for t in inst.terminals:
            assert np.flatnonzero(~table.correct[t]).tolist() == wrong[t]
            assert table.terminal_error(t) == Fraction(len(wrong[t]), len(rows))
        bad = sorted(set().union(*wrong.values()))
        assert np.flatnonzero(~table.good).tolist() == bad
        assert table.error == Fraction(len(bad), len(rows))
        for e in inst.edges:
            assert table.edge_values(e.id).tolist() == [r[table._edge_pos[e.id]] for r in rows]


def test_joint_counts_in_first_occurrence_order():
    a = np.array([5, 5, 7, 5, 7, 9])
    b = np.array([1, 2, 1, 1, 1, 1])
    assert joint_counts([a], 6).tolist() == [3, 2, 1]
    assert joint_counts([a, b], 6).tolist() == [2, 1, 2, 1]
    assert joint_counts([], 6).tolist() == [6]
    # Six columns of about 4000 distinct symbols outgrow 62 bits of key, so
    # the key is re-densified once on the way.
    rng = np.random.default_rng(3)
    wide = [rng.integers(0, 1 << 20, size=4000) for _ in range(6)]
    want = Counter(zip(*(c.tolist() for c in wide)))
    assert joint_counts(wide, 4000).tolist() == list(want.values())


@pytest.mark.parametrize("value", [1.7, True, "1"], ids=["float", "bool", "string"])
def test_parse_code_rejects_non_integer_encoder_entries(value):
    _, code = butterfly()
    data = json.loads(json_bytes(code))
    data["encoders"]["bottleneck"][1] = value
    with pytest.raises(DomainError, match="entries must be integers"):
        parse_code(data)


@pytest.mark.parametrize("value", [0.0, False, "0"], ids=["float", "bool", "string"])
def test_parse_code_rejects_non_integer_decoder_entries(value):
    _, code = butterfly()
    data = json.loads(json_bytes(code))
    data["decoders"]["t1"][2][0] = value
    with pytest.raises(DomainError, match="entries must be integers"):
        parse_code(data)


@pytest.mark.parametrize("value", [2.0, True, "2"], ids=["float", "bool", "string"])
def test_parse_code_rejects_non_integer_alphabets(value):
    _, code = butterfly()
    data = json.loads(json_bytes(code))
    data["edge_alphabets"]["bottleneck"] = value
    with pytest.raises(DomainError, match="must be an integer"):
        parse_code(data)


def test_parse_code_rejects_ragged_decoder_rows():
    _, code = butterfly()
    data = json.loads(json_bytes(code))
    data["decoders"]["t2"][3] = [1]
    with pytest.raises(DomainError, match="rows of different lengths"):
        parse_code(data)
    data["decoders"]["t2"][3] = 1
    with pytest.raises(DomainError, match="rows must be lists"):
        parse_code(data)


def test_code_tables_are_read_only_arrays():
    inst, code = butterfly()
    assert code.encoders["bottleneck"].tolist() == [0, 1, 1, 0]
    assert code.decoders["t1"].shape == (4, 2)
    with pytest.raises(ValueError):
        code.encoders["bottleneck"][0] = 1
    table = build_global_table(inst, code)
    assert table.rows.shape == (4, len(inst.edges))
    assert table.rows.dtype == np.uint8
    with pytest.raises(ValueError):
        table.rows[0, 0] = 1
