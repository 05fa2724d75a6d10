"""The byte-level table reader against the stock oracle, ``json.loads``
followed by ``network.int_table``: it must give the same arrays or hand the
text back to ``json``."""

import json
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_lists, json_bytes
from edgedrop import codes, network
from edgedrop.codes import load_code, parse_code, relay_instance, tabulate
from edgedrop.errors import DomainError
from edgedrop.network import (
    FAST_READ_BYTES,
    PARALLEL_PARSE_BYTES,
    _int_table_text,
    _read_tables,
    load_json,
)

# Text that a table may be mutated with: everything the reader must refuse
# or read exactly as json does.
TOKENS = [
    "-0", "0", "00", "01", "-01", "-", "--1", "+1", "1 2", "1\n2",
    "999999999999999999", "-999999999999999999", "1000000000000000000",
    "1234567890123456789", "-1234567890123456789", "12345678901234567890",
    "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809",
    "1.5", "1.0", "1e3", "1E+2", "-0.0", "true", "false", "null",
    '"7"', '"a\\"b"', '"ü"', "NaN", "Infinity", "-Infinity",
    "[]", "[[]]", "[[[1]]]", "[[1],[2]]", "[1,]", ",", ",,", "[", "]",
    " ", "\n", "\t", "\r", "\f", "{}", ":", " ",
]

INTS = st.one_of(
    st.integers(-300, 300),
    st.sampled_from([10**17, -(10**17), 10**18 - 1, 2**62, -(2**63), 2**63 - 1]),
    st.integers(-(2**63), 2**63 - 1),
)


def _dump(value, indent) -> str:
    if indent:
        return json.dumps(value, indent=2)
    return json.dumps(value, separators=(",", ":"))


@st.composite
def mutated(draw, text):
    """The text with up to three edits: a token inserted or written over a
    character, or a few characters deleted."""
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "replace", "delete"]))
        if kind == "delete":
            text = text[:pos] + text[pos + draw(st.integers(1, 3)) :]
        else:
            token = draw(st.sampled_from(TOKENS))
            text = text[:pos] + token + text[pos + (kind == "replace") :]
    return text


@st.composite
def table_texts(draw):
    if draw(st.booleans()):
        table = draw(st.lists(INTS, max_size=10))
    else:
        width = draw(st.integers(0, 3))
        table = draw(st.lists(st.lists(INTS, min_size=width, max_size=width), max_size=5))
    return draw(mutated(_dump(table, draw(st.booleans()))))


def _read(text: str):
    raw = text.encode()
    return _int_table_text(raw, 0, len(raw))


def _agrees_with_json(text: str) -> bool:
    """False when the reader handed the text off; raises when it disagrees."""
    got = _read(text)
    if got is None:
        return False
    expected = network.int_table(json.loads(text), got.ndim, "table")
    assert got.dtype == np.int64 and not got.flags.writeable
    assert got.shape == expected.shape and np.array_equal(got, expected), text
    return True


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(table_texts())
def test_table_reader_agrees_with_json_or_hands_off(text):
    _agrees_with_json(text)


@pytest.mark.parametrize("token", TOKENS)
def test_table_reader_on_each_token(token):
    for template in ("[1,{},3]", "[[1,2],[{},4]]", "[\n  {}\n]", "[\n  [\n    {},\n    5\n  ]\n]"):
        _agrees_with_json(template.format(token))


@pytest.mark.parametrize(
    "text, shape",
    [
        ("[]", (0,)),
        ("[0]", (1,)),
        ("[[],[]]", (2, 0)),
        ("[[5],[6]]", (2, 1)),
        ("[ [1 ,2] ,\r\n\t[3, 4] ]", (2, 2)),
        ("[999999999999999999,99999999999999999]", (2,)),
        ("[1234567890123456789]", (1,)),
        ("[9223372036854775807,1000000000000000000]", (2,)),
    ],
)
def test_table_reader_reads_well_formed_tables(text, shape):
    assert _agrees_with_json(text)
    assert _read(text).shape == shape


@pytest.mark.parametrize(
    "text",
    [
        "[01]", "[-01]", "[1,]", "[,1]", "[1 2]", "[[1],[2,3]]", "[[1],2]", "[[[1]]]",
        "[1.0]", "[true]", "[1e3]", "[-]", "[+1]", "[1]]",
        # Numbers of 2**63 or more are left to json.
        "[9223372036854775808]", "[18446744073709551615]", "[12345678901234567890]",
        # Digits outside a row, or a row with an empty number.
        "[0[]]", "[0[],0[]]", "[\n6[,]40 ]", "[[1]5,[2]]", "[5[1]]", "[[1,],[2,]]", "[[,1],[,2]]",
        # Negative entries are left to json.
        "[-0]", "[-4]", "[[1,2],[3,-4]]", "[999999999999999999,-99999999999999999]",
        # Ragged rows whose delimiters are as long as rectangular ones.
        "[[1,2],[3,4],[5],[6,7,8]]", "[[1,2],[3,4],[5,6],[7],[8,9,1]]", "[[1],[],[2]]",
    ],
)
def test_table_reader_hands_off_what_it_cannot_prove(text):
    assert _read(text) is None


@pytest.mark.parametrize(
    "text",
    ["[" * 5000 + "]" * 5000, "[[" + "0," * 5000 + "0]" + ",[0]" * 5000 + "]"],
    ids=["deep", "ragged"],
)
def test_table_reader_memory_stays_linear_in_the_text(text):
    """Deep or ragged rows are refused before the reader spells out the
    delimiters that rows as wide as the first would have."""
    tracemalloc.start()
    try:
        assert _read(text) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * len(text)


KEYS = st.one_of(
    st.sampled_from(["e", 'a"b', "ü", "x: [1, 2]", '":[3],"', "\\", "k\n", "NaN"]),
    st.text(max_size=4),
)


@st.composite
def code_texts(draw):
    """Code-shaped documents with odd keys, in either layout, mutated."""
    rows = draw(st.lists(st.lists(INTS, min_size=2, max_size=2), max_size=4))
    doc = {
        "blocklength": 1,
        draw(KEYS): draw(st.lists(INTS, max_size=3)),
        "source_alphabets": [2, 2],
        "encoders": {draw(KEYS): draw(st.lists(INTS, max_size=4)) for _ in range(2)},
        "decoders": {draw(KEYS): rows},
        "edge_alphabets": {"e": 2},
    }
    indent = draw(st.sampled_from([None, 2]))
    text = json.dumps(doc, ensure_ascii=draw(st.booleans()), indent=indent)
    return draw(mutated(text))


def _parsed(data):
    """The code's ``json_bytes``, or the message that refuses it."""
    try:
        return json_bytes(parse_code(data))
    except DomainError as exc:
        return str(exc)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(code_texts())
def test_file_reader_agrees_with_json_or_hands_off(text):
    got = _read_tables(text.encode(), codes._code_tables)
    if got is None:
        return
    expected = json.loads(text)
    assert as_lists(got) == expected
    assert _parsed(got) == _parsed(expected)


def test_tables_elsewhere_come_back_as_lists():
    text = '{"encoders": {"e": [1, 2], "f": [[1]]}, "other": [3, 4], "decoders": {"t": [5]}}'
    got = _read_tables(text.encode(), codes._code_tables)
    assert isinstance(got["encoders"]["e"], np.ndarray)
    assert got["encoders"]["f"] == [[1]] and got["other"] == [3, 4] and got["decoders"]["t"] == [5]
    # A table inside a string is not one; json decides.
    assert _read_tables(b'{"a": "x: [1, 2]"}', codes._code_tables) is None


@pytest.mark.parametrize("layout", ["compact", "indent=2"])
def test_large_codes_load_without_the_per_entry_check(tmp_path, monkeypatch, layout):
    """Guard: a 2^16-tuple relay loads with ``int_table``'s per-entry check,
    ``_int_entries``, unusable, in the layout the benchmark writes and in the
    one ``save_code`` writes."""
    sizes = [256, 256]
    _, code = relay_instance(sizes, 2, tabulate(sizes, lambda a, b: (a + b) % 2))
    data = json.loads(json_bytes(code))
    text = json_bytes(data).decode() if layout == "indent=2" else _dump(data, None)
    assert len(text) >= FAST_READ_BYTES
    path = tmp_path / "relay.code.json"
    path.write_text(text)
    expected = parse_code(json.loads(text))

    def refuse(*args):
        raise AssertionError("per-entry table check")

    monkeypatch.setattr(network, "_int_entries", refuse)
    assert json_bytes(load_code(str(path))) == json_bytes(expected)


# Where a token goes in an indented code file: a string, a key, a table.
_NAN_PLACES = {
    "string": ('"blocklength"', '"note": "{}",\n  "blocklength"'),
    "key": ('"e": [', '"{}": [1],\n    "e": ['),
    "table": ('"e": [\n      0,', '"e": [\n      {},'),
}


@pytest.mark.parametrize("place", _NAN_PLACES)
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_nan_and_infinity_anywhere_hand_the_file_to_json(tmp_path, token, place):
    """In a large code file, beside tables the reader reads."""
    sizes = [16, 16]
    _, code = relay_instance(sizes, 4, tabulate(sizes, lambda a, b: (a + b) % 4))
    text = json_bytes(code).decode()
    assert len(text) >= FAST_READ_BYTES and _read_tables(text.encode(), codes._code_tables)
    old, new = _NAN_PLACES[place]
    text = text.replace(old, new.format(token), 1)
    assert _read_tables(text.encode(), codes._code_tables) is None
    path = tmp_path / "nan.code.json"
    path.write_text(text)
    try:
        got = json_bytes(load_code(str(path)))
    except DomainError as exc:
        got = str(exc)
    assert got == _parsed(json.loads(text))


# ----------------------------------------- tables converted on a worker
# With PARALLEL_PARSE_BYTES patched to 0, every table, however short, is.


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(table_texts())
def test_threaded_table_reader_agrees_with_json_or_hands_off(text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "PARALLEL_PARSE_BYTES", 0)
        _agrees_with_json(text)


@pytest.mark.parametrize("token", TOKENS)
def test_threaded_table_reader_on_each_token(monkeypatch, token):
    monkeypatch.setattr(network, "PARALLEL_PARSE_BYTES", 0)
    test_table_reader_on_each_token(token)


@pytest.fixture
def conversions(monkeypatch) -> list:
    """Each ``np.fromstring`` call, in order: its dtype, whether it ran on
    the main thread, and the bytes it converted."""
    calls = []
    fromstring = np.fromstring

    def spy(text, dtype, sep):
        calls.append((np.dtype(dtype), threading.current_thread() is threading.main_thread(), bytes(text)))
        return fromstring(text, dtype=dtype, sep=sep)

    monkeypatch.setattr(network.np, "fromstring", spy)
    return calls


def _large_table(indent) -> str:
    """About 1 MB of table text, 1-D when compact and rows of three when
    indented; its entries span the lengths the reader accepts."""
    values = np.random.default_rng(5).integers(0, 2**63 - 1, 3 * 20000)
    values[::3] %= 1000
    if indent is None:
        return _dump(values.tolist(), None)
    return json_bytes(values.reshape(-1, 3).tolist()).decode()


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indent=2"])
def test_large_table_with_each_token_at_its_start_middle_and_end(indent):
    text = _large_table(indent)
    assert 0.8e6 < len(text) < 1.6e6 and _agrees_with_json(text)
    # Just inside the opening bracket, in the middle, and after the last entry.
    read = 0
    for pos in (1, len(text) // 2, len(text.rstrip("]\n "))):
        for token in TOKENS:
            read += _agrees_with_json(text[:pos] + token + text[pos:])
    assert read


def test_only_tables_from_the_threshold_up_start_a_thread(conversions):
    """Below the threshold this thread converts the whole table; from it
    up a worker converts one share and this thread the other."""
    ones = "1," * (PARALLEL_PARSE_BYTES // 2 - 2)
    assert len(_read(f"[{ones}1]")) == len(_read(f"[{ones}12]")) == PARALLEL_PARSE_BYTES // 2 - 1
    on_main = [main for _, main, _ in conversions]
    assert on_main[0] is True and sorted(on_main[1:]) == [False, True]


def _code_file(tmp_path, last_entry: str) -> str:
    """A code file whose one table is long enough to start the worker."""
    assert len("7," * 50000) > PARALLEL_PARSE_BYTES
    path = tmp_path / "large.code.json"
    path.write_text('{"encoders": {"e": [' + "7," * 50000 + last_entry + "]}}")
    return str(path)


@pytest.mark.parametrize(
    "last_entry, expected",
    [("8", 8), ("8.5", 8.5), ("8]", DomainError)],
    ids=["accepted", "refused-by-its-last-byte", "not-json"],
)
def test_load_json_leaves_no_thread_and_no_uncaught_error(tmp_path, monkeypatch, last_entry, expected):
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    path = _code_file(tmp_path, last_entry)
    before = threading.active_count()
    if expected is DomainError:
        with pytest.raises(DomainError, match="invalid JSON"):
            load_json(path, codes._code_tables)
    else:
        table = load_json(path, codes._code_tables)["encoders"]["e"]
        assert len(table) == 50001 and table[-1] == expected
        assert isinstance(table, np.ndarray) == (type(expected) is int)
    assert threading.active_count() == before and hooked == []


class Unparsable(Exception):
    pass


@pytest.mark.parametrize(
    "threshold, failing",
    [(0, "worker"), (0, "calling"), (1 << 40, "calling")],
    ids=["threaded", "threaded-calling-share", "serial"],
)
def test_conversion_errors_surface_only_from_tables_that_pass_the_checks(monkeypatch, threshold, failing):
    """The conversion of either thread's share fails; its error is raised,
    after the join, only for a table that passes the checks."""
    error = Unparsable()
    convert = np.fromstring

    def fromstring(text, dtype, sep):
        if (threading.current_thread() is threading.main_thread()) == (failing == "calling"):
            raise error
        return convert(text, dtype=dtype, sep=sep)

    monkeypatch.setattr(network, "PARALLEL_PARSE_BYTES", threshold)
    monkeypatch.setattr(network.np, "fromstring", fromstring)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    before = threading.active_count()
    with pytest.raises(Unparsable) as raised:
        _read("[[1, 2], [3, 4]]")
    assert raised.value is error
    assert _read("[[1, 2], [3, 4.5]]") is None
    assert threading.active_count() == before and hooked == []


@pytest.mark.parametrize(
    "raw", [b'{\r\n"a": 1,\r\n}', b'{\r"a": [1,\r\r 2\r}', b'{"a":\r\n "\r"}', b'\xef\xbb\xbf{}\r\n']
)
def test_refusals_name_the_position_a_text_mode_read_gives(tmp_path, raw):
    """``load_json`` decodes the bytes it read itself; its refusals name
    the line and column that ``json.load`` of a text-mode file names, with
    ``\\r\\n`` and ``\\r`` read as newlines."""
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as expected:
        json.load(fh)
    with pytest.raises(DomainError) as got:
        load_json(str(path))
    assert str(got.value) == f"{path}: invalid JSON: {expected.value}"


# -------------------------------------------- zeros inside and before numbers
# Each case's entries go first or last in a table of filler entries, in a
# file just above FAST_READ_BYTES and in one whose table starts the worker.

ZERO_CASES = ["[0,100]", "[10,01]", "[-0,-01]", "[1000000000000000000]", "[[0,0],[00,1]]"]


def _padded(case: str, where: str, entries: int) -> str:
    """The case's entries (or rows) and ``entries`` filler ones, as one table."""
    body = case[1:-1]
    filler = ",".join(["[7,7]" if case.startswith("[[") else "7"] * entries)
    return "[" + (f"{body},{filler}" if where == "first" else f"{filler},{body}") + "]"


@pytest.mark.parametrize("entries", [2500, 40000], ids=["small-file", "threaded-table"])
@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("case", ZERO_CASES)
def test_zeros_in_numbers_read_as_json_does(case, where, entries, tmp_path):
    table = _padded(case, where, entries)
    key, tables = ("decoders", "t") if case.startswith("[[") else ("encoders", "e")
    text = '{"%s": {"%s": %s}}' % (key, tables, table)
    assert FAST_READ_BYTES <= len(text) and (len(table) >= PARALLEL_PARSE_BYTES) == (entries > 2500)
    path = tmp_path / "zeros.code.json"
    path.write_text(text)
    try:
        expected = json.loads(text)[key][tables]
    except ValueError:
        assert _read(table) is None
        with pytest.raises(DomainError, match="invalid JSON"):
            load_json(str(path), codes._code_tables)
        return
    assert _agrees_with_json(table)
    got = load_json(str(path), codes._code_tables)[key][tables]
    assert isinstance(got, np.ndarray) and as_lists(got) == expected


# ---------------------------------------- unsigned conversion
# A table is converted as uint64 and viewed as int64; one minus sign
# anywhere hands the whole table to json.  Every table is converted from its
# numbers alone, its text without brackets and whitespace.

UNSIGNED_CASES = ["999999999999999999", str(10**17), "0", "7"]
SIGNED_CASES = ["-99999999999999999", "-7", "-0"]
MARKER = 123456789012345678  # 18 digits, so no entry drawn below spells it


def _table_with(entry: str, where: str, entries: int, indent) -> str:
    """Rows of three numbers, ``entries`` in all, of up to 17 digits, with
    the first, middle or last entry spelled ``entry``, laid out as ``json``
    lays them out with ``indent``."""
    flat = np.random.default_rng(7).integers(0, 10**17, entries)
    flat[::3] %= 16
    flat[{"first": 0, "middle": entries // 2, "last": entries - 1}[where]] = MARKER
    text = _dump(flat.reshape(-1, 3).tolist(), indent)
    assert text.count(str(MARKER)) == 1
    return text.replace(str(MARKER), entry)


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indent=2"])
@pytest.mark.parametrize("entries", [300, 12000], ids=["inline", "worker"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("entry", UNSIGNED_CASES)
def test_tables_convert_as_uint64_and_read_as_json_does(conversions, entry, where, entries, indent):
    """A table below the threshold is converted on this thread; from it up
    a worker converts its numbers up to the first comma from
    ``_WORKER_SHARE`` of their bytes on, and this thread the rest."""
    text = _table_with(entry, where, entries, indent)
    assert (len(text) >= PARALLEL_PARSE_BYTES) == (entries > 300)
    assert _agrees_with_json(text)
    numbers = text.encode().translate(None, b" \n[]")
    uint64 = np.dtype(np.uint64)
    if entries <= 300:
        assert conversions == [(uint64, True, numbers)]
        return
    worker, calling = sorted(conversions, key=lambda c: c[1])
    assert worker[:2] == (uint64, False) and calling[:2] == (uint64, True)
    front, back = worker[2], calling[2]
    assert front + b"," + back == numbers
    share = int(len(numbers) * network._WORKER_SHARE)
    assert len(front) >= share and b"," not in numbers[share : len(front)]


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indent=2"])
@pytest.mark.parametrize("entries", [600, 12000], ids=["inline", "worker"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("entry", SIGNED_CASES)
def test_signed_tables_are_handed_to_json(tmp_path, entry, where, entries, indent):
    """The table reader refuses a table with a minus sign, and ``load_json``
    gives the list that ``json`` reads."""
    table = _table_with(entry, where, entries, indent)
    assert (len(table) >= PARALLEL_PARSE_BYTES) == (entries > 600)
    assert _read(table) is None
    text = '{"decoders": {"t": %s}}' % table
    assert len(text) >= FAST_READ_BYTES
    path = tmp_path / "signed.code.json"
    path.write_text(text)
    got = load_json(str(path), codes._code_tables)["decoders"]["t"]
    assert type(got) is list and got == json.loads(text)["decoders"]["t"]


@pytest.mark.parametrize("chunk", [1, 2, 3, 17])
@pytest.mark.parametrize("head", ["[", "[ "], ids=["compact", "indented"])
def test_number_runs_are_counted_across_scan_chunks(monkeypatch, head, chunk):
    """``_number_starts`` scans ``_SCAN_CHUNK`` bytes at a time; with small
    chunks, a first entry of one to ``chunk + 1`` digits moves a number
    split by whitespace, and an empty number, across every chunk border."""
    monkeypatch.setattr(network, "_SCAN_CHUNK", chunk)
    for digits in range(1, chunk + 2):
        first = "9" * digits
        assert _read(f"{head}{first}, 123 ]").tolist() == [int(first), 123]
        for split in ("1 23", "12 3", "1\n23", "12\r\n3"):
            text = f"{head}{first}, {split} ]"
            assert network._number_starts(text.encode(), 0, len(text)) == 3, (chunk, digits, split)
            assert _read(text) is None, (chunk, digits, split)
        for empty in (",,123", ", ,123", ",123,"):
            assert _read(f"{head}{first}{empty}]") is None, (chunk, digits, empty)


@pytest.mark.parametrize("chunk", [1, 2, 3, 17])
@pytest.mark.parametrize("head", ["[[", "[ ["], ids=["compact", "indented"])
def test_row_joins_are_counted_across_scan_chunks(monkeypatch, head, chunk):
    """``_row_joins`` scans ``_SCAN_CHUNK`` bytes at a time; with small
    chunks, a first entry of one to ``chunk + 2`` digits moves each ``],[``
    and a digit outside a row, which only the row-join check refuses,
    across every chunk border."""
    monkeypatch.setattr(network, "_SCAN_CHUNK", chunk)
    for digits in range(1, chunk + 3):
        first = "1" * digits
        text = f"{head}{first},2],[3,4],[5,6]]"
        raw = text.replace(" ", "").encode()
        for lo in range(len(raw)):
            assert network._row_joins(raw, lo, len(raw)) == raw.count(b"],[", lo), (chunk, digits, lo)
        assert _agrees_with_json(text)
        for stray in (f"{head}{first},]3,[4,5]]", f"{head}{first},2]7,[3,4]]", f"{head}{first},2],[3,4]8,[5,6]]"):
            assert _read(stray) is None, (chunk, digits, stray)


_NO_BRACKETS = str.maketrans("", "", "[]")


# Tokens that refuse a table, each put in place of one entry, and a digit
# outside a row, put after a row's closing bracket or before its opening one.
SPLIT_TOKENS = ["0123456", str(2**64), ".5", "-1234567", "", "]5", "5["]


@pytest.mark.parametrize("token", SPLIT_TOKENS, ids=SPLIT_TOKENS[:4] + ["empty", "after-a-row", "before-a-row"])
def test_refused_tokens_on_either_side_of_the_split(conversions, token):
    """Each token that refuses a table goes in the worker's share, at the
    comma where the shares split, and in this thread's share, in tables of
    rows of three 7-digit numbers above the threshold; the number of rows
    moves the split across a row.  The reader hands every such table to
    ``json``, whichever share holds the token."""
    places = set()
    for count in range(1998, 2004):
        rows = np.random.default_rng(count).integers(10**6, 10**7, (count, 3)).tolist()
        text = _dump(rows, None)
        assert len(text) >= PARALLEL_PARSE_BYTES and _agrees_with_json(text)
        starts = [m.start() for m in re.finditer(r"\d+", text)]
        numbers = text.translate(_NO_BRACKETS)
        # The entry that ends at the split comma: each entry and its comma
        # take 8 bytes of the numbers.
        split = numbers.find(",", int(len(numbers) * network._WORKER_SHARE)) // 8
        for i in [0, len(starts) - 1, *range(split - 6, split + 7)]:
            start, end = starts[i], starts[i] + 7
            if token == "]5":
                if text[end : end + 2] != "],":
                    continue
                pos, mutated = end + 1, text[: end + 1] + "5" + text[end + 1 :]
            elif token == "5[":
                if text[start - 2 : start] != ",[":
                    continue
                pos, mutated = start - 1, text[: start - 1] + "5" + text[start - 1 :]
            else:
                pos, mutated = start, text[:start] + token + text[end:]
            del conversions[:]
            assert _read(mutated) is None, (token, count, i)
            (worker,) = [c for c in conversions if not c[1]]
            front = len(worker[2])
            # Where the token lies in the numbers, the text without brackets.
            lo = len(mutated[:pos].translate(_NO_BRACKETS))
            hi = lo + len(token.translate(_NO_BRACKETS))
            places.add("worker" if hi < front else "calling" if lo > front + 1 else "split")
    assert places == {"worker", "split", "calling"}


def _peak_beside_array(raw: bytes, rows: np.ndarray) -> float:
    """The tracemalloc peak of reading ``raw``, less its int64 array, as a
    share of the text's length."""
    _int_table_text(raw, 0, len(raw))
    tracemalloc.start()
    try:
        got = _int_table_text(raw, 0, len(raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, rows)
    return (peak - got.nbytes) / len(raw)


@pytest.fixture(scope="module")
def rows_of_three():
    """262144 rows of three numbers below 16, and their 2.4 MB compact text."""
    rows = np.random.default_rng(3).integers(0, 16, (262144, 3))
    raw = _dump(rows.tolist(), None).encode()
    assert len(raw) >= 2 * 10**6
    return rows, raw


def test_a_large_compact_table_holds_little_beside_its_array(monkeypatch, rows_of_three):
    """Memory guard: the tracemalloc peak of reading a 2.4 MB compact table
    of rows of three, less its int64 array, is 0.795 of the text's length.
    The reader that converted the text with its brackets peaked at 1.014
    (measured alike), the bound; one more buffer as long as the text alive
    at the peak would pass it.  The conversion runs on this thread, so the
    order of the buffers, and the peak, repeat exactly."""
    monkeypatch.setattr(network, "PARALLEL_PARSE_BYTES", 1 << 40)
    rows, raw = rows_of_three
    assert _peak_beside_array(raw, rows) < 1.015


def test_a_large_table_read_by_two_threads_holds_little_beside_its_array(rows_of_three):
    """Memory guard for the threaded read of the same table: the peak less
    the array measured 1.001 to 1.111 of the text's length in 120 reads
    (the threads' timing moves it).  The numbers stay alive until the
    worker ends, beside both shares' values and digit-count temporaries.
    The bound, 1.5, fails one more copy of the values (6.3 MB, 2.63 of the
    text), such as joining the shares into a third array."""
    rows, raw = rows_of_three
    assert len(raw) >= PARALLEL_PARSE_BYTES
    assert _peak_beside_array(raw, rows) < 1.5
