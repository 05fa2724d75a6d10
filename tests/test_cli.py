"""End-to-end tests for the command-line interface.

Commands run in process through main(argv); reports are read back from
stdout or the --out file.
"""

import argparse
import builtins
import collections
import dataclasses
import hashlib
import itertools
import json
import json.encoder
import os
import random
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from test_golden import CORPUS, GOLDEN_DIR
from edgedrop import network
from edgedrop.cli import ERROR_ABOVE_EPS, build_parser, main
from edgedrop.codes import NetworkCode, load_code, relay_instance, save_code, tabulate
from edgedrop.errors import InternalCheckError
from edgedrop.groups import MAX_GROUP_NESTING
from edgedrop.library import butterfly
from edgedrop.network import Edge, NetworkInstance, Source, json_bytes, load_instance, save_instance


def _write_pair(tmp_path, inst, code, stem="net"):
    inst_path = str(tmp_path / f"{stem}.instance.json")
    code_path = str(tmp_path / f"{stem}.code.json")
    save_instance(inst, inst_path)
    save_code(code, code_path)
    return inst_path, code_path


def _stdout_report(capsys):
    return json.loads(capsys.readouterr().out)


def test_a_repeated_terminal_is_refused(tmp_path, capsys):
    """Terminal t listed twice, demanding s1 and then s2.  Its decoder was
    read for the first entry alone, so the demand for s2 went unchecked and
    a code that sends s2 as a constant verified."""
    inst = NetworkInstance(
        nodes=("s1", "s2", "t"),
        edges=(Edge("a", "s1", "t", 2), Edge("b", "s2", "t", 2)),
        sources=(Source("s1", 2), Source("s2", 2)),
        terminals=("t", "t"),
        demands=((1, 0), (0, 1)),
    )
    decoder = [[0], [0], [1], [1]]  # inputs (a, b): the first is s1
    code = NetworkCode(1, (2, 2), {"a": 2, "b": 2}, {"a": [0, 1], "b": [0, 0]}, {"t": decoder})
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    assert main(["validate", inst_path]) == 1
    assert _stdout_report(capsys)["result"]["problems"] == ["duplicate terminal 't'"]
    assert main(["verify", inst_path, code_path, "--rates", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: duplicate terminal 't'" in captured.err


@pytest.mark.parametrize("blocklength", [0, -1])
def test_blocklength_below_one_is_refused(tmp_path, capsys, blocklength):
    """Blocklength 0 made every bit-rate target 2**0 = 1, so any rate
    verified, and blocklength -1 wrote the target 0.5 into the report."""
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, dataclasses.replace(code, blocklength=blocklength))
    assert main(["verify", inst_path, code_path, "--rates", "5,5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: blocklength must be >= 1, got {blocklength}" in captured.err


def test_validate_exit_codes(tmp_path, capsys):
    inst, code = butterfly()
    inst_path, _ = _write_pair(tmp_path, inst, code)
    assert main(["validate", inst_path]) == 0
    assert _stdout_report(capsys)["result"]["problems"] == []

    broken = dataclasses.replace(inst, nodes=inst.nodes[:-1])
    broken_path = str(tmp_path / "broken.instance.json")
    save_instance(broken, broken_path)
    assert main(["validate", broken_path]) == 1
    assert _stdout_report(capsys)["result"]["problems"]

    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["bogus"]) == 2
    assert main(["verify"]) == 2
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    assert main(["verify", inst_path, code_path, "--rates", "1,1", "--eps", "abc"]) == 2
    capsys.readouterr()


def test_verify_exit_codes_and_rates_grammar(tmp_path, capsys):
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    # Plain integers are bits per use; one bit per binary source holds.
    assert main(["verify", inst_path, code_path, "--rates", "1,1"]) == 0
    report = _stdout_report(capsys)
    assert report["result"]["feasibility"]["verdict"] is True
    assert report["result"]["feasibility"]["target_cardinalities"] == [2, 2]

    # Two bits per source needs cardinality four and fails.
    assert main(["verify", inst_path, code_path, "--rates", "2,2"]) == 1
    report = _stdout_report(capsys)
    assert report["result"]["feasibility"]["rate_ok"] == [False, False]

    inst4, code4 = butterfly(4)
    inst4_path, code4_path = _write_pair(tmp_path, inst4, code4, stem="wide")
    assert main(["verify", inst4_path, code4_path, "--rates", "2,2"]) == 0
    # The # prefix gives the cardinality directly.
    assert main(["verify", inst4_path, code4_path, "--rates", "#4,#4"]) == 0
    capsys.readouterr()


def test_verify_eps_is_echoed_verbatim(tmp_path, capsys):
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    assert main(
        ["verify", inst_path, code_path, "--rates", "1,1", "--eps", "1/4"]
    ) == 0
    report = _stdout_report(capsys)
    assert "1/4" in report["command"]
    assert report["result"]["feasibility"]["target_eps"] == "1/4"


def test_report_roundtrip_digests_and_echo(tmp_path, capsys):
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    out_path = tmp_path / "report.json"
    status = main(
        [
            "verify",
            inst_path,
            code_path,
            "--rates",
            "1,1",
            "--out",
            str(out_path),
            "--enum-cap",
            "100",
        ]
    )
    capsys.readouterr()
    assert status == 0
    payload = out_path.read_bytes()
    report = json.loads(payload)
    # Tuning flags are stripped from the echo.
    assert "--out" not in report["command"]
    assert "--enum-cap" not in report["command"]
    assert report["command"][:3] == ["verify", inst_path, code_path]
    for path in (inst_path, code_path):
        digest = "sha256:" + hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert report["inputs"][path] == digest


def test_reports_byte_identical_across_enum_caps(tmp_path, capsys):
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    outs = []
    for cap in ("4", "1000"):
        out_path = tmp_path / f"report-{cap}.json"
        argv = [
            "remove-edge",
            inst_path,
            code_path,
            "--edge",
            "bottleneck",
            "--partition",
            "builtin:cwl",
            "--out",
            str(out_path),
            "--enum-cap",
            cap,
        ]
        assert main(argv) == 0
        outs.append(out_path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_remove_edge_builtin_cwl_emits_files(tmp_path, capsys):
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    prefix = str(tmp_path / "restricted")
    argv = [
        "remove-edge",
        inst_path,
        code_path,
        "--edge",
        "bottleneck",
        "--partition",
        "builtin:cwl",
        "--emit",
        prefix,
    ]
    assert main(argv) == 0
    report = _stdout_report(capsys)
    assert report["result"]["route"] == "cwl"
    assert report["result"]["found"] is True
    cert = report["result"]["certificate"]
    assert cert["feasibility"]["verdict"] is True
    assert cert["achieved_cardinalities"] == [1, 1]

    emitted = load_instance(prefix + ".instance.json")
    assert len(emitted.edges) == len(inst.edges) - 1
    assert all(e.id != "bottleneck" for e in emitted.edges)
    load_code(prefix + ".code.json")


def test_remove_edge_cwl_route_gates_on_error(tmp_path, capsys):
    inst, code = relay_instance([2, 2], 2, tabulate([2, 2], lambda a, b: a ^ b))
    rows = list(code.decoders["t"])
    rows[0] = (1, 1)
    corrupted = dataclasses.replace(code, decoders={"t": tuple(rows)})
    inst_path, code_path = _write_pair(tmp_path, inst, corrupted)
    argv = [
        "remove-edge",
        inst_path,
        code_path,
        "--edge",
        "e",
        "--partition",
        "builtin:cwl",
    ]
    assert main(argv) == 1
    report = _stdout_report(capsys)
    assert report["result"]["found"] is False
    assert "error exceeds" in report["result"]["reason"]


def _parity_relay_one_bad_per_class(tmp_path):
    """4x4 sum-mod-2 relay, one corrupted decoder row per parity class."""
    inst, code = relay_instance([4, 4], 2, tabulate([4, 4], lambda a, b: (a + b) % 2))
    rows = list(code.decoders["t"])
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        rows[(a * 4 + b) * 2 + (a + b) % 2] = ((a + 2) % 4, b)
    corrupted = dataclasses.replace(code, decoders={"t": tuple(rows)})
    paths = _write_pair(tmp_path, inst, corrupted)
    return [*paths, "--edge", "e"]


def test_remove_edge_cwl_route_takes_requested_eps(tmp_path, capsys):
    # The code's error is 1/4, spread evenly over the four classes.
    argv = ["remove-edge", *_parity_relay_one_bad_per_class(tmp_path),
            "--partition", "builtin:cwl"]
    assert main(argv + ["--eps", "1/2"]) == 0
    report = _stdout_report(capsys)
    assert report["result"]["found"] is True
    assert report["result"]["certificate"]["eps"] == "1/2"
    assert report["result"]["certificate"]["feasibility"]["verdict"] is True

    # No class beats 1/4 strictly: verified not found, not a usage error.
    assert main(argv + ["--eps", "1/4"]) == 1
    assert _stdout_report(capsys)["result"]["found"] is False


def test_remove_edge_edge_value_route_gates_on_error(tmp_path, capsys):
    argv = ["remove-edge", *_parity_relay_one_bad_per_class(tmp_path),
            "--partition", "builtin:edge-value"]
    assert main(argv) == 1
    report = _stdout_report(capsys)
    assert report["result"] == {
        "route": "edge-value",
        "found": False,
        "reason": "code error exceeds the requested eps",
    }


def test_eps_outside_unit_interval_is_a_usage_error(tmp_path, capsys, monkeypatch):
    base = ["remove-edge", *_parity_relay_one_bad_per_class(tmp_path)]
    assert main(base + ["--partition", "builtin:cwl", "--eps", "-1"]) == 2
    assert "eps" in capsys.readouterr().err

    def no_restriction(*args, **kwargs):
        raise AssertionError("restriction ran on an out-of-range eps")

    monkeypatch.setattr("edgedrop.removal.restrict_code", no_restriction)
    labels = tmp_path / "parity.json"
    labels.write_text(
        json.dumps({"labels": [2 * (a % 2) + b % 2 for a in range(4) for b in range(4)]})
    )
    assert main(base + ["--partition", str(labels), "--eps", "1"]) == 2
    assert "eps" in capsys.readouterr().err


def test_remove_edge_partition_file_routes(tmp_path, capsys):
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, code)

    singles = tmp_path / "singles.json"
    singles.write_text(json.dumps({"labels": [0, 1, 2, 3]}))
    argv = [
        "remove-edge",
        inst_path,
        code_path,
        "--edge",
        "bottleneck",
        "--partition",
        str(singles),
    ]
    assert main(argv) == 0
    report = _stdout_report(capsys)
    assert report["result"]["route"] == "partition"
    assert report["result"]["conditions"] == {
        "determines_edge": True,
        "parts_are_products": True,
    }
    assert report["result"]["certificate"]["feasibility"]["verdict"] is True

    # Grouping by the first source leaves the XOR varying inside a part.
    byfirst = tmp_path / "byfirst.json"
    byfirst.write_text(json.dumps({"labels": [0, 0, 1, 1]}))
    argv[-1] = str(byfirst)
    assert main(argv) == 1
    report = _stdout_report(capsys)
    assert report["result"]["found"] is False
    assert report["result"]["conditions"]["determines_edge"] is False


def test_label_files_take_all_integers_or_all_strings(tmp_path, capsys):
    # The relay carries x1, so the two parts {x1 = 0} and {x1 = 1} determine it.
    inst, code = relay_instance([2, 2], 2, tabulate([2, 2], lambda a, b: a))
    argv = ["remove-edge", *_write_pair(tmp_path, inst, code), "--edge", "e", "--partition"]
    labels = tmp_path / "labels.json"
    for good in (["a", "a", "b", "b"], [7, 7, 1, 1]):
        labels.write_text(json.dumps({"labels": good}))
        assert main(argv + [str(labels)]) == 0
        assert _stdout_report(capsys)["result"]["found"] is True
    for bad in ([True, True, 1, 1], [0, 0, "1", "1"], [0.0, 0.0, 1.0, 1.0], "aabb"):
        labels.write_text(json.dumps({"labels": bad}))
        assert main(argv + [str(labels)]) == 2
        assert "all integers or all strings" in capsys.readouterr().err


def _outcomes(argv, capsys, monkeypatch):
    """Exit status, report and error text of one command, first with the
    byte-level table reader, then with json alone."""
    out = []
    for fast_bytes in (network.FAST_READ_BYTES, sys.maxsize):
        monkeypatch.setattr(network, "FAST_READ_BYTES", fast_bytes)
        status = main(argv)
        captured = capsys.readouterr()
        err = [line for line in captured.err.splitlines() if not line.startswith("elapsed")]
        out.append((status, captured.out, err))
    return out


def test_large_label_files_go_through_the_reader(tmp_path, capsys, monkeypatch):
    # The relay carries x1 mod 2; labels 1000 + x1 mod 2 give its level sets.
    sizes = [16, 16, 8]
    inst, code = relay_instance(sizes, 2, tabulate(sizes, lambda a, b, c: a % 2))
    argv = ["remove-edge", *_write_pair(tmp_path, inst, code), "--edge", "e", "--partition"]
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": tabulate(sizes, lambda a, b, c: 1000 + a % 2)}))
    threshold = network.FAST_READ_BYTES
    assert labels.stat().st_size >= threshold
    fast, stock = _outcomes(argv + [str(labels)], capsys, monkeypatch)
    assert fast == stock and fast[0] == 0
    monkeypatch.setattr(network, "FAST_READ_BYTES", threshold)

    def refuse(*args):
        raise AssertionError("per-entry table check")

    monkeypatch.setattr(network, "_int_entries", refuse)
    assert main(argv + [str(labels)]) == 0
    assert _stdout_report(capsys)["result"]["found"] is True


def test_labels_beyond_64_bits_are_a_usage_error(tmp_path, capsys):
    inst, code = relay_instance([2, 2], 2, tabulate([2, 2], lambda a, b: a))
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"labels": [0, 0, 1, 2**64]}))
    argv = ["remove-edge", *_write_pair(tmp_path, inst, code), "--edge", "e"]
    assert main(argv + ["--partition", str(labels)]) == 2
    assert "labels entries must fit in 64 bits" in capsys.readouterr().err


MUTATIONS = ["-0", "01", "1.5", "1e3", "true", "null", '"7"', "[", "]", ",", " ", "1 2",
             "[[1]]", "99999999999999999999", "-9223372036854775809", "NaN", '"a\\"b"', "ü"]


def test_mutated_code_files_exit_as_json_alone_would(tmp_path, capsys, monkeypatch):
    """Mutated large code files exit 0, 1 or 2 with no traceback, and the
    byte-level reader changes neither the status, the report nor the error."""
    sizes = [8, 8, 8]
    inst, code = relay_instance(sizes, 2, tabulate(sizes, lambda a, b, c: (a + b + c) % 2))
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    text = json.dumps(json.loads(json_bytes(code)), separators=(",", ":"))
    assert len(text) >= network.FAST_READ_BYTES
    commands = [
        ["verify", inst_path, code_path, "--rates", "1,1,1"],
        ["remove-edge", inst_path, code_path, "--edge", "e", "--partition", "builtin:edge-value"],
    ]
    rng = random.Random(8)
    statuses = set()
    for _ in range(60):
        pos = rng.randrange(len(text))
        mutated = text[:pos] + rng.choice(MUTATIONS) + text[pos + rng.randint(0, 2) :]
        Path(code_path).write_text(mutated, encoding="utf-8")
        for argv in commands:
            fast, stock = _outcomes(argv, capsys, monkeypatch)
            assert fast == stock, mutated[max(0, pos - 20) : pos + 20]
            assert fast[0] in (0, 1, 2)
            assert not any("Traceback" in line or "internal error" in line for line in fast[2])
            statuses.add(fast[0])
    assert statuses == {0, 1, 2}


def test_remove_edge_edge_value_route(tmp_path, capsys):
    inst, code = relay_instance([4, 3], 2, tabulate([4, 3], lambda a, b: a % 2))
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    argv = [
        "remove-edge",
        inst_path,
        code_path,
        "--edge",
        "e",
        "--partition",
        "builtin:edge-value",
    ]
    assert main(argv) == 0
    report = _stdout_report(capsys)
    assert report["result"]["route"] == "edge-value"
    assert report["result"]["certificate"]["achieved_cardinalities"] == [2, 3]

    # XOR fibers are not products, so the butterfly refuses this route.
    binst, bcode = butterfly()
    binst_path, bcode_path = _write_pair(tmp_path, binst, bcode, stem="bf")
    argv2 = [
        "remove-edge",
        binst_path,
        bcode_path,
        "--edge",
        "bottleneck",
        "--partition",
        "builtin:edge-value",
    ]
    assert main(argv2) == 1
    assert _stdout_report(capsys)["result"]["found"] is False

    assert main(argv + ["--eps", "1/4"]) == 2
    capsys.readouterr()


def test_cwl_check_with_and_without_groups_file(tmp_path, capsys):
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    assert main(["cwl-check", inst_path, code_path, "--edge", "bottleneck"]) == 0
    report = _stdout_report(capsys)
    assert report["result"]["witness"]["hom"] == [0, 1, 1, 0]
    assert report["result"]["witness"]["edge_support"] == [0, 1]

    groups = tmp_path / "groups.json"
    groups.write_text(
        json.dumps(
            {
                "sources": [
                    {"kind": "cyclic", "order": 2},
                    {"kind": "cyclic", "order": 2},
                ],
                "edge": {"kind": "cyclic", "order": 2},
                "edge_support": [0, 1],
            }
        )
    )
    argv = [
        "cwl-check",
        inst_path,
        code_path,
        "--edge",
        "bottleneck",
        "--groups",
        str(groups),
    ]
    assert main(argv) == 0
    capsys.readouterr()

    mismatched = tmp_path / "mismatched.json"
    mismatched.write_text(
        json.dumps({"sources": [{"kind": "cyclic", "order": 3}]})
    )
    argv[-1] = str(mismatched)
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("support", [[0, True], [0, 1.0], [0, "1"]])
def test_edge_support_lists_take_integers_only(tmp_path, capsys, support):
    golden = Path(__file__).parent / "golden" / "inputs"
    groups = json.loads((golden / "butterfly.groups.json").read_text())
    groups["edge_support"] = support
    groups_path = tmp_path / "groups.json"
    groups_path.write_text(json.dumps(groups))
    argv = ["cwl-check", str(golden / "butterfly.instance.json"),
            str(golden / "butterfly.code.json"), "--edge", "bottleneck",
            "--groups", str(groups_path)]
    assert main(argv) == 2
    assert "edge support symbol must be an integer" in capsys.readouterr().err

    pieces = json.loads((golden / "shift44.pieces.json").read_text())
    pieces["edge_support"] = [*support, 2, 3]
    pieces_path = tmp_path / "pieces.json"
    pieces_path.write_text(json.dumps(pieces))
    argv = ["pwl-remove", str(golden / "shift44.instance.json"),
            str(golden / "shift44.code.json"), "--edge", "e", "--pieces", str(pieces_path)]
    assert main(argv) == 2
    assert "edge support symbol must be an integer" in capsys.readouterr().err


def test_cwl_search_rewrite_and_budget(tmp_path, capsys):
    # The AND relay needs the full-information rewrite before any group law
    # fits its bottleneck column.
    inst, code = relay_instance([2, 2], 4, tabulate([2, 2], lambda a, b: a & b))
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    assert main(["cwl-search", inst_path, code_path, "--edge", "e"]) == 0
    report = _stdout_report(capsys)
    assert report["result"]["rewritten"] is True
    assert "rewritten_code" in report["result"]

    argv = ["cwl-search", inst_path, code_path, "--edge", "e", "--rewrites", "0"]
    assert main(argv) == 1
    assert _stdout_report(capsys)["result"]["found"] is False


def test_cwl_search_honours_enum_cap(tmp_path, capsys):
    inst, code = relay_instance([64, 64], 4, tabulate([64, 64], lambda a, b: (a + b) % 4))
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    argv = ["cwl-search", inst_path, code_path, "--edge", "e", "--enum-cap", "10"]
    assert main(argv) == 2
    assert "above the cap of 10" in capsys.readouterr().err


def test_cwl_search_finds_the_cyclic_sum_of_composite_order(tmp_path, capsys):
    """Z6 leads the catalog for 6 symbols, so one assignment certifies the
    sum mod 6 without a rewrite."""
    inst, code = relay_instance([6, 6], 6, tabulate([6, 6], lambda a, b: (a + b) % 6))
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    argv = ["cwl-search", inst_path, code_path, "--edge", "e", "--budget", "1", "--rewrites", "0"]
    assert main(argv) == 0
    result = _stdout_report(capsys)["result"]
    assert result["rewritten"] is False
    assert result["witness"]["source_groups"] == [{"kind": "cyclic", "order": 6}] * 2


def test_relabels_on_a_source_above_the_table_bound_exit_2(tmp_path, capsys):
    """Relabeled sources are Cayley tables, refused above 512 symbols, so
    the refusal names the flag that asked for them."""
    inst, code = relay_instance([520, 2], 2, tabulate([520, 2], lambda a, b: b))
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    argv = ["cwl-search", inst_path, code_path, "--edge", "e", "--budget", "1"]
    assert main(argv + ["--relabels", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --relabels" in captured.err and "at most 512 symbols" in captured.err
    assert main(argv + ["--relabels", "0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--budget", "--relabels"])
@pytest.mark.parametrize(
    "column, status",
    [([(a + b) % 3 for a in range(3) for b in range(3)], 0), ([0, 0, 0, 1, 1, 2, 1, 2, 2], 1)],
    ids=["sum", "not-cwl"],
)
def test_search_counts_above_sys_maxsize_search_as_at_maxsize(flag, column, status, tmp_path, capsys):
    """The search never tries more assignments than its candidates make, so
    2**64 reports what 2**63 - 1 reports, found or not."""
    inst_path, code_path = _write_pair(tmp_path, *relay_instance([3, 3], 3, column))
    results = []
    for value in (2**63 - 1, 2**64):
        assert main(["cwl-search", inst_path, code_path, "--edge", "e", flag, str(value)]) == status
        results.append(_stdout_report(capsys)["result"])
    assert results[0] == results[1]


def test_bit_rate_targets_must_fit_the_report(tmp_path, capsys):
    """2**14284 has 4,300 digits, as many as int writes by default, so its
    report is written; 2**14285 has one more and is refused as usage."""
    paths = _write_pair(tmp_path, *butterfly())
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["verify", *paths, "--rates", "14284,1"]) == 1
        feasibility = _stdout_report(capsys)["result"]["feasibility"]
        assert feasibility["target_cardinalities"] == [2**14284, 2]
        for bits in ("14285", "1" + "0" * 100):  # the second is refused without taking 2**bits
            assert main(["verify", *paths, "--rates", f"{bits},1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "error: --rates" in captured.err
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="module")
def mod_600_relay(tmp_path_factory):
    """A 32 x 32 relay whose edge carries the tuple index mod 600, over an
    edge alphabet of 600: fibers of two and of one tuple, 600 symbols."""
    inst, code = relay_instance([32, 32], 600, [i % 600 for i in range(1024)])
    return _write_pair(tmp_path_factory.mktemp("mod600"), inst, code)


@pytest.mark.parametrize(
    "command, flags, result",
    [
        ("cwl-check", [], {"witness": None}),
        ("cwl-search", [], {"found": False}),
        ("remove-edge", ["--partition", "builtin:cwl"], {"route": "cwl", "found": False}),
    ],
)
def test_unequal_fibers_above_the_table_bound_are_not_cwl(
    mod_600_relay, command, flags, result, capsys
):
    """Unequal fibers rule CWL out at any image size, so an image above the
    512-symbol table bound is judged, not refused as input."""
    inst_path, code_path = mod_600_relay
    assert main([command, inst_path, code_path, "--edge", "e", *flags]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"] == result
    assert "not accepted" not in captured.err


@pytest.mark.parametrize("flag, value", [("--budget", "-3"), ("--enum-cap", "-1")])
def test_counts_in_flags_must_be_positive(flag, value, tmp_path, capsys):
    inst, code = relay_instance([4, 4], 4, tabulate([4, 4], lambda a, b: (a + b) % 4))
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    assert main(["cwl-search", inst_path, code_path, "--edge", "e", flag, value]) == 2
    assert f"argument {flag}: expected a positive integer, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--rewrites", "-1"), ("--relabels", "-5"), ("--rewrites", "x")])
def test_search_counts_in_flags_must_be_non_negative(flag, value, tmp_path, capsys):
    inst, code = relay_instance([4, 4], 4, tabulate([4, 4], lambda a, b: (a + b) % 4))
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    assert main(["cwl-search", inst_path, code_path, "--edge", "e", flag, value]) == 2
    message = f"argument {flag}: expected a non-negative integer, got '{value}'"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--rates", "x"], "--rates"),
        (["--rates", "#y,1"], "--rates"),
        (["case-study", "n2", "--assignment", "a,b"], "--assignment"),
        (["case-study", "dougherty", "--t", "a,b"], "--t"),
        (["case-study", "n2", "--assignment", ""], "--assignment"),
        (["case-study", "dougherty", "--t", ""], "--t"),
    ],
)
def test_integer_list_flags_are_usage_errors_naming_the_flag(argv, flag, tmp_path, capsys):
    if argv[0] == "--rates":
        argv = ["verify", *_write_pair(tmp_path, *butterfly()), *argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "ValueError" not in err and "invalid literal" not in err


COMMON_FLAGS = {"--out", "--format"}
ENUM_CAP = {"--enum-cap"}
# Each leaf command by its words, with the flags it takes besides COMMON_FLAGS;
# validate and group-zero-error enumerate no tuples, so they take no --enum-cap.
LEAF_FLAGS = {
    "validate": set(),
    "verify": ENUM_CAP | {"--eps", "--rates"},
    "remove-edge": ENUM_CAP | {"--edge", "--partition", "--eps", "--groups", "--emit"},
    "cwl-check": ENUM_CAP | {"--edge", "--groups"},
    "pwl-remove": ENUM_CAP | {"--edge", "--pieces", "--emit"},
    "cwl-search": ENUM_CAP | {"--edge", "--budget", "--rewrites", "--relabels"},
    "group-remove": ENUM_CAP | {"--edge", "--sources", "--emit"},
    "group-zero-error": {"--demand"},
    "case-study butterfly": ENUM_CAP | {"--emit"},
    "case-study n2": ENUM_CAP | {"--m", "--w", "--assignment"},
    "case-study n3-injectivity": ENUM_CAP | {"--m", "--s", "--alpha", "--grid"},
    "case-study dougherty": ENUM_CAP | {"--alphabet", "--t", "--search"},
}


def _leaf_flags(parser, words=()):
    """(words, flags) of each leaf command under ``parser``; every parser on
    the way takes full flag names only."""
    assert parser.allow_abbrev is False, words
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_flags(sub, (*words, name))
            return
    yield " ".join(words), {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


def test_each_command_takes_exactly_the_flags_it_reads():
    """Adding a flag to a command means adding it here."""
    flags = {name: COMMON_FLAGS | own for name, own in LEAF_FLAGS.items()}
    assert dict(_leaf_flags(build_parser())) == flags


@pytest.mark.parametrize("flag", [["--enum", "100000"], ["--ou", "report.json"]])
def test_abbreviated_flags_are_usage_errors(flag, tmp_path, capsys, monkeypatch):
    argv = ["verify", *_write_pair(tmp_path, *butterfly()), "--rates", "1,1", *flag]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("text", ["1_0", "\u0661", "+1", " 1"])
@pytest.mark.parametrize("flag", ["--rates", "--budget", "--assignment", "--m"])
def test_integers_are_ascii_digits_after_an_optional_minus(flag, text, tmp_path, capsys):
    """``int`` reads each of these texts as a number; the command line does not."""
    pair = _write_pair(tmp_path, *butterfly())
    argv = {
        "--rates": ["verify", *pair, "--rates", f"{text},1"],
        "--budget": ["cwl-search", *pair, "--edge", "bottleneck", "--budget", text],
        "--assignment": ["case-study", "n2", "--assignment", f"{text},2"],
        "--m": ["case-study", "n2", "--m", text],
    }[flag]
    assert main(argv) == 2
    assert f"argument {flag}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1_0/4_0", "+1/4", " 1/4", "\u0661/\u0664", "1e-1", "1/4 "])
def test_eps_is_ascii_digits_a_fraction_or_a_decimal(text, tmp_path, capsys):
    argv = ["verify", *_write_pair(tmp_path, *butterfly()), "--rates", "1,1", "--eps"]
    assert main(argv + [text]) == 2
    assert f"expected eps as a rational like 1/4 or 0.25, got {text!r}" in capsys.readouterr().err
    for text in ["0", "1/4", "0.25"]:
        assert main(argv + [text]) == 0


STUDY_FLAGS = {
    "butterfly": [["--emit", "case"]],
    "n2": [["--m", "2"], ["--w", "2"], ["--assignment", "2,2"]],
    "n3-injectivity": [["--m", "2"], ["--s", "1"], ["--alpha", "1"], ["--grid"]],
    "dougherty": [["--alphabet", "4"], ["--t", "0,1,3,2"], ["--search"]],
}


@pytest.mark.parametrize(
    "study, flag",
    [
        (study, flag)
        for study, own in STUDY_FLAGS.items()
        for other in STUDY_FLAGS.values()
        for flag in other
        if flag[0] not in {f[0] for f in own}
    ],
)
def test_a_study_refuses_the_flags_of_other_studies(study, flag, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = ["--t", "0,1,3,2"] if study == "dougherty" else []
    assert main(["case-study", study, *base]) == 0
    capsys.readouterr()
    assert main(["case-study", study, *base, *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--m", "3"], ["--m", "2"], ["--s", "1"], ["--alpha", "2"]])
def test_the_n3_grid_takes_no_single_parameter(flag, capsys):
    assert main(["case-study", "n3-injectivity", "--grid", *flag]) == 2
    assert "--grid runs its own --m, --s and --alpha" in capsys.readouterr().err


@pytest.mark.parametrize("partition", ["inputs/butterfly.singles.json", "builtin:edge-value"])
def test_groups_goes_only_with_the_cwl_route(partition, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    argv = ["remove-edge", "inputs/butterfly.instance.json", "inputs/butterfly.code.json",
            "--edge", "bottleneck", "--partition", partition]
    assert main(argv) in (0, 1)
    capsys.readouterr()
    assert main(argv + ["--groups", "inputs/butterfly.groups.json"]) == 2
    assert "--groups applies only to --partition builtin:cwl" in capsys.readouterr().err


def test_an_unknown_builtin_route_names_the_builtins(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    argv = ["remove-edge", "inputs/butterfly.instance.json", "inputs/butterfly.code.json",
            "--edge", "bottleneck", "--partition", "builtin:cwI"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "builtin:cwl or builtin:edge-value, got 'builtin:cwI'" in err


def test_cwl_search_makes_at_most_one_rewrite(tmp_path, capsys):
    argv = ["cwl-search", *_write_pair(tmp_path, *butterfly()), "--edge", "bottleneck"]
    assert main(argv + ["--rewrites", "1"]) == 0
    capsys.readouterr()
    assert main(argv + ["--rewrites", "2"]) == 2
    assert "argument --rewrites: invalid choice: 2" in capsys.readouterr().err


@pytest.mark.parametrize("orders", [[2, 8], [4], [4, 4, 1]])
def test_pieces_file_sources_must_match_the_source_alphabets(orders, tmp_path, capsys, monkeypatch):
    """The 4 x 4 source alphabets are checked before any piece is read."""
    golden = GOLDEN_DIR / "inputs"
    pieces = json.loads((golden / "shift44.pieces.json").read_text())
    pieces["sources"] = [{"kind": "cyclic", "order": n} for n in orders]
    pieces_path = tmp_path / "pieces.json"
    pieces_path.write_text(json.dumps(pieces))

    def refuse(*args):
        raise AssertionError("pieces certified against mismatched source groups")

    monkeypatch.setattr("edgedrop.cwl.check_piecewise", refuse)
    argv = ["pwl-remove", str(golden / "shift44.instance.json"),
            str(golden / "shift44.code.json"), "--edge", "e", "--pieces", str(pieces_path)]
    assert main(argv) == 2
    assert "pieces file does not match the source alphabets" in capsys.readouterr().err


def test_case_study_n2_checks_the_cap_before_building_permutations(monkeypatch, capsys):
    def refuse(m, w):
        raise AssertionError("permutations built before the cap check")

    monkeypatch.setattr("edgedrop.library.n2_permutations", refuse)
    assert main(["case-study", "n2", "--m", "100", "--w", "100", "--enum-cap", "1"]) == 2
    assert "above the cap of 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["n2", "--m", "1" + "0" * 1500], "w * (m * w)^3 cases, above the cap of 16777216"),
        (["dougherty", "--alphabet", "1" + "0" * 900, "--t", "0"], "alphabet^5 cases, above the cap"),
        (
            ["dougherty", "--alphabet", "1000000", "--search", "--enum-cap", "1" + "0" * 33],
            "alphabet^alphabet candidates, above the cap of 1048576",
        ),
    ],
)
def test_case_study_caps_refuse_large_parameters(argv, message, capsys):
    """Each run once exited 3: writing q^5, or w * (m * w)^3, past the
    digits int writes raised ValueError, and the search first took
    1000000^1000000 for 5 s.  ``test_library.py`` checks that no such power
    is taken."""
    assert main(["case-study", *argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"sources": [{"kind": "cyclic"}] * 2}, "cyclic group description is missing 'order'"),
        ({"sources": [{"kind": "product"}] * 2}, "product group description is missing 'factors'"),
        ({"sources": [{"kind": "table"}] * 2}, "table group description is missing 'table'"),
        ({"sources": 5}, "'sources' must list the source group descriptions"),
        ({"edge_support": 5}, "'edge_support' must be a list of integers"),
        (
            {"sources": [{"kind": "product", "order": 99, "factors": [{"kind": "cyclic", "order": 2}]}] * 2},
            "declared order does not match the product group's order",
        ),
        (
            {"sources": [{"kind": "table", "order": 99, "table": [[0, 1], [1, 0]]}] * 2},
            "declared order does not match the table group's order",
        ),
    ],
)
def test_groups_files_name_the_bad_field(edit, message, tmp_path, capsys):
    golden = Path(__file__).parent / "golden" / "inputs"
    groups = json.loads((golden / "butterfly.groups.json").read_text())
    groups_path = tmp_path / "groups.json"
    groups_path.write_text(json.dumps({**groups, **edit}))
    argv = ["cwl-check", str(golden / "butterfly.instance.json"),
            str(golden / "butterfly.code.json"), "--edge", "bottleneck",
            "--groups", str(groups_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Error(" not in err


def _nested_product(depth: int) -> dict:
    """Z2 wrapped in ``depth`` one-factor products."""
    desc = {"kind": "cyclic", "order": 2}
    for _ in range(depth):
        desc = {"kind": "product", "factors": [desc]}
    return desc


@pytest.mark.parametrize(
    "depth, status", [(MAX_GROUP_NESTING, 0), (MAX_GROUP_NESTING + 1, 2), (250, 2)]
)
def test_group_descriptions_nest_products_at_most_the_bound(depth, status, tmp_path, capsys):
    """Products nested 250 deep used to exit 3 with a RecursionError while
    the report echoed the source groups."""
    golden = Path(__file__).parent / "golden" / "inputs"
    groups = json.loads((golden / "butterfly.groups.json").read_text())
    groups["sources"][0] = _nested_product(depth)
    groups_path = tmp_path / "groups.json"
    groups_path.write_text(json.dumps(groups))
    argv = ["cwl-check", str(golden / "butterfly.instance.json"),
            str(golden / "butterfly.code.json"), "--edge", "bottleneck",
            "--groups", str(groups_path)]
    assert main(argv) == status
    err = capsys.readouterr().err
    assert (f"nests products more than {MAX_GROUP_NESTING} deep" in err) == (status == 2)


def test_pwl_remove_on_nonzero_error_code_is_not_found(tmp_path, capsys):
    golden = Path(__file__).parent / "golden" / "inputs"
    code = load_code(str(golden / "shift44.code.json"))
    rows = code.decoders["t"].tolist()
    rows[0] = [(rows[0][0] + 1) % 4, rows[0][1]]
    corrupted = dataclasses.replace(code, decoders={"t": rows})
    code_path = str(tmp_path / "shift44bad.code.json")
    save_code(corrupted, code_path)
    argv = ["pwl-remove", str(golden / "shift44.instance.json"), code_path,
            "--edge", "e", "--pieces", str(golden / "shift44.pieces.json")]
    assert main(argv) == 1
    result = _stdout_report(capsys)["result"]
    assert result == {"found": False, "reason": "code error exceeds the requested eps"}


def test_pwl_remove_refuses_a_repeated_support_symbol(tmp_path, capsys):
    """A repeated symbol was once accepted and counted in the divisor
    ``len(edge_support) * K`` of the kept-symbol bound."""
    golden = Path(__file__).parent / "golden" / "inputs"
    pieces = json.loads((golden / "shift44.pieces.json").read_text())
    pieces["edge_support"] = [*pieces["edge_support"], pieces["edge_support"][-1]]
    pieces_path = tmp_path / "pieces.json"
    pieces_path.write_text(json.dumps(pieces))
    argv = ["pwl-remove", str(golden / "shift44.instance.json"),
            str(golden / "shift44.code.json"), "--edge", "e", "--pieces", str(pieces_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: support symbols must be distinct" in captured.err


@pytest.mark.parametrize(
    "mutation",
    ["boolean subsets", "float phi", "both"],
)
def test_pwl_remove_piece_files_take_integers_only(tmp_path, capsys, mutation):
    golden = Path(__file__).parent / "golden" / "inputs"
    pieces = json.loads((golden / "shift44.pieces.json").read_text())
    first, second = pieces["pieces"][:2]
    if mutation in ("boolean subsets", "both"):
        first["subsets"][0], second["subsets"][0] = [False], [True]
    if mutation in ("float phi", "both"):
        first["phi"] = [float(v) for v in first["phi"]]
    pieces_path = tmp_path / "pieces.json"
    pieces_path.write_text(json.dumps(pieces))
    argv = ["pwl-remove", str(golden / "shift44.instance.json"),
            str(golden / "shift44.code.json"), "--edge", "e", "--pieces", str(pieces_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be an integer" in captured.err


def test_consecutive_main_calls_share_one_parser(tmp_path, capsys):
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    for _ in range(2):
        assert main(["validate", inst_path]) == 0
        report = _stdout_report(capsys)
        assert report["command"] == ["validate", inst_path]
        assert report["result"] == {"problems": []}
        assert main(["verify", inst_path, code_path, "--rates", "1,1", "--eps", "1/8"]) == 0
        report = _stdout_report(capsys)
        assert report["command"] == ["verify", inst_path, code_path, "--rates", "1,1",
                                     "--eps", "1/8"]
        assert report["result"]["feasibility"]["target_eps"] == "1/8"
        argv = ["cwl-check", inst_path, code_path, "--edge", "bottleneck"]
        assert main(argv) == 0
        assert _stdout_report(capsys)["result"]["witness"]["edge_support"] == [0, 1]


def test_non_integer_code_entry_is_a_usage_error(tmp_path, capsys):
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    data = json.loads(Path(code_path).read_text())
    data["encoders"]["bottleneck"][0] = 0.5
    Path(code_path).write_text(json.dumps(data))
    assert main(["verify", inst_path, code_path, "--rates", "1,1"]) == 2
    assert "entries must be integers" in capsys.readouterr().err


def test_group_remove_and_zero_error(tmp_path, capsys):
    spec_path = tmp_path / "klein.json"
    spec_path.write_text(
        json.dumps(
            {
                "group": {
                    "kind": "product",
                    "factors": [
                        {"kind": "cyclic", "order": 2},
                        {"kind": "cyclic", "order": 2},
                    ],
                },
                "subgroups": {"s1": [0, 1], "s2": [0, 2], "e": [0, 3]},
            }
        )
    )
    argv = ["group-remove", str(spec_path), "--edge", "e", "--sources", "s1,s2"]
    assert main(argv) == 0
    report = _stdout_report(capsys)
    assert all(report["result"]["checks"].values())
    assert report["result"]["auxiliary_order"] == 1
    assert report["result"]["certificate"]["feasibility"]["verdict"] is True

    argv = ["group-zero-error", str(spec_path), "--demand", "s1:s1"]
    assert main(argv) == 0
    report = _stdout_report(capsys)
    assert report["result"]["decisions"][0]["kind"] == "zero_error"

    argv = ["group-zero-error", str(spec_path), "--demand", "e:s1", "--demand", "s1:s1"]
    assert main(argv) == 1
    report = _stdout_report(capsys)
    kinds = [d["kind"] for d in report["result"]["decisions"]]
    assert kinds == ["high_error", "zero_error"]
    assert report["result"]["decisions"][0]["min_error"] == "1/2"

    argv = ["group-zero-error", str(spec_path), "--demand", "no-colon"]
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("factors", [[2] * 21, [10**9] * 600])
def test_group_commands_refuse_orders_above_the_cap(factors, tmp_path, capsys):
    """An order of 5,401 digits once exited 3: the cap's message wrote it
    past the digits int writes.  The message names the cap alone."""
    spec_path = tmp_path / "big.json"
    group = {"kind": "product", "factors": [{"kind": "cyclic", "order": n} for n in factors]}
    spec_path.write_text(json.dumps({"group": group, "subgroups": {"s1": [0], "e": [0]}}))
    for command, *flags in (
        ["group-remove", "--edge", "e", "--sources", "s1"],
        ["group-zero-error", "--demand", "e:s1"],
    ):
        assert main([command, str(spec_path), *flags]) == 2
        assert "group order is above the cap of 1048576" in capsys.readouterr().err


def test_verify_refuses_a_tuple_space_too_long_to_print(tmp_path, capsys):
    """239 undemanded sources of alphabet 2^62 make a tuple count of 4,461
    digits; the cap's message once wrote it and exited 3."""
    sizes = [2] + [2**62] * 239
    names = [f"s{i}" for i in range(len(sizes))]
    inst = {
        "nodes": [*names, "t"],
        "sources": [{"node": n, "alphabet_size": a} for n, a in zip(names, sizes)],
        "edges": [],
        "terminals": ["t"],
        "demands": [[1]] + [[0]] * 239,
    }
    code = {
        "blocklength": 1,
        "source_alphabets": sizes,
        "edge_alphabets": {},
        "encoders": {},
        "decoders": {"t": [[0]]},
    }
    (tmp_path / "i.json").write_text(json.dumps(inst))
    (tmp_path / "c.json").write_text(json.dumps(code))
    rates = ",".join(["1"] + ["62"] * 239)
    assert main(["verify", str(tmp_path / "i.json"), str(tmp_path / "c.json"), "--rates", rates]) == 2
    assert "source tuple space is above the cap of 16777216" in capsys.readouterr().err


def test_zero_error_decoder_keys_are_listed_in_string_order(tmp_path, capsys):
    """Read against {0, 8}, the trivial subgroup of Z16 has 16 cosets, so
    its decoder has keys 0 to 15: the report lists them as strings, in
    string order, where an integer sort would put 2 before 10."""
    spec_path = tmp_path / "z16.json"
    spec = {"group": {"kind": "cyclic", "order": 16}, "subgroups": {"triv": [0], "s": [0, 8]}}
    spec_path.write_text(json.dumps(spec))
    assert main(["group-zero-error", str(spec_path), "--demand", "triv:s"]) == 0
    text = capsys.readouterr().out
    decoder = json.loads(text)["result"]["decisions"][0]["decoder"]
    assert list(decoder) == sorted(str(k) for k in range(16))
    assert list(decoder)[:4] == ["0", "1", "10", "11"]
    assert decoder == {str(k): k % 8 for k in range(16)}
    assert text.index('"10": 2') < text.index('"2": 2')


def test_group_remove_honours_enum_cap(capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent / "golden")
    argv = ["group-remove", "inputs/klein.json", "--edge", "e", "--sources", "s1,s2"]
    assert main(argv + ["--enum-cap", "1"]) == 2
    assert "above the cap of 1" in capsys.readouterr().err
    assert main(argv + ["--enum-cap", "4"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("sources", [" s1 ,, s2 ,", "s1,,s2", "s1,s2,", " s1,s2", "s1,s2 ", ""])
def test_group_remove_refuses_empty_or_padded_source_keys(sources, capsys, monkeypatch):
    """A key is taken as written: none is stripped, and none dropped."""
    monkeypatch.chdir(Path(__file__).parent / "golden")
    argv = ["group-remove", "inputs/klein.json", "--edge", "e", "--sources", sources]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --sources: expected non-empty unpadded keys, got {sources!r}" in captured.err


@pytest.mark.parametrize("demand", [" e : s1 ", "e :s1", "e: s1", "e:", ":s1", ":"])
def test_group_zero_error_refuses_empty_or_padded_demand_keys(demand, capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent / "golden")
    argv = ["group-zero-error", "inputs/klein.json", "--demand", "s1:s1", "--demand", demand]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --demand: expected non-empty unpadded keys, got {demand!r}" in captured.err


def test_internal_check_failure_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalCheckError("coset partition fails to determine the edge message")

    monkeypatch.setattr("edgedrop.groupcodes.abelian_removal_plan", broken)
    monkeypatch.chdir(Path(__file__).parent / "golden")
    argv = ["group-remove", "inputs/klein.json", "--edge", "e", "--sources", "s1,s2"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: coset partition fails" in captured.err


def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent / "golden")
    out = str(tmp_path / "missing" / "report.json")
    argv = ["verify", "inputs/sum44.instance.json", "inputs/sum44.code.json", "--rates", "2,2"]
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write the report")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("target", ["edgedrop.codes.check_feasibility", "edgedrop.cli.emit_report"])
def test_uncaught_exception_exits_3(target, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(target, broken)
    monkeypatch.chdir(Path(__file__).parent / "golden")
    argv = ["verify", "inputs/sum44.instance.json", "inputs/sum44.code.json", "--rates", "2,2"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: IndexError('index 7 is out of bounds')")


@pytest.mark.parametrize(
    "argv, status, first",
    [
        (["validate", "inputs/butterfly.instance.json"], 0, "elapsed "),
        (["remove-edge", "inputs/butterfly.instance.json", "inputs/butterfly.code.json",
          "--edge", "bottleneck", "--partition", "inputs/butterfly.byfirst.json"], 1, "elapsed "),
        (["validate", "inputs/missing.json"], 2, "error: [Errno 2] No such file or directory"),
        (["bogus"], 2, "usage: "),
        (["verify", "inputs/sum44.instance.json", "inputs/sum44.code.json", "--rates", "2,2"], 3,
         "internal error: IndexError('index 7 is out of bounds')"),
    ],
)
def test_elapsed_goes_to_stderr_on_every_exit_path(argv, status, first, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr("edgedrop.codes.check_feasibility", broken)
    monkeypatch.chdir(Path(__file__).parent / "golden")
    assert main(argv) == status
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(first)
    assert err[-1].startswith("elapsed ")


def test_reports_and_emitted_files_skip_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    """A 2^16-tuple ``remove-edge builtin:cwl`` job writes its report and its
    restricted files without ``json``'s indenting encoder, and without
    sending a code table through the per-entry list path of the recursive
    writer ``_json_text``: its tables reach the writer as arrays."""
    sizes = (256, 256)
    table = [sum(x) % 2 for x in itertools.product(*map(range, sizes))]
    inst_path, code_path = _write_pair(tmp_path, *relay_instance(sizes, 2, table))

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)
    list_path = network._json_text

    def short_lists_only(obj, newline, tables):
        if isinstance(obj, (list, tuple)) and len(obj) > 4096:
            raise AssertionError("a table went through the per-entry list path")
        return list_path(obj, newline, tables)

    monkeypatch.setattr(network, "_json_text", short_lists_only)
    with pytest.raises(AssertionError):
        network.json_bytes({"table": list(range(4097))})
    with pytest.raises(AssertionError):
        network.json_bytes({"table": np.arange(4097, dtype=np.int32)})
    out, emit = str(tmp_path / "report.json"), str(tmp_path / "restricted")
    argv = ["remove-edge", inst_path, code_path, "--edge", "e", "--partition", "builtin:cwl"]
    assert main(argv + ["--out", out, "--emit", emit]) == 0
    capsys.readouterr()
    result = json.loads(Path(out).read_text())["result"]
    assert result["found"] is True
    assert json.loads(Path(emit + ".code.json").read_text()) == result["restricted_code"]
    assert json.loads(Path(emit + ".instance.json").read_text()) == result["restricted_instance"]


def test_case_study_butterfly_with_emit(tmp_path, capsys):
    prefix = str(tmp_path / "case")
    assert main(["case-study", "butterfly", "--emit", prefix]) == 0
    report = _stdout_report(capsys)
    names = [r["name"] for r in report["result"]["runs"]]
    assert names == ["binary", "wide"]
    binary, wide = report["result"]["runs"]
    assert binary["certificate"]["achieved_cardinalities"] == [1, 1]
    assert wide["certificate"]["achieved_cardinalities"] == [2, 2]
    for name in names:
        load_instance(f"{prefix}.{name}.instance.json")
        load_code(f"{prefix}.{name}.code.json")
        restricted = load_instance(f"{prefix}.{name}.restricted.instance.json")
        assert all(e.id != "bottleneck" for e in restricted.edges)


def test_case_study_identity_checks(capsys):
    assert main(["case-study", "n2"]) == 0
    assert main(["case-study", "n2", "--assignment", "2,2"]) == 0
    assert main(["case-study", "n3-injectivity", "--grid"]) == 0
    capsys.readouterr()
    assert main(["case-study", "dougherty", "--alphabet", "4", "--search"]) == 0
    report = _stdout_report(capsys)
    assert report["result"]["dougherty"]["discovered"] == [[0, 1, 3, 2], [0, 2, 1, 3]]
    assert main(["case-study", "dougherty", "--alphabet", "2", "--search"]) == 1
    assert main(["case-study", "dougherty", "--alphabet", "4", "--t", "0,1,3,2"]) == 0
    assert main(["case-study", "dougherty", "--alphabet", "4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["butterfly"], "source tuple space is above the cap of 1"),
        (["n2", "--m", "2", "--w", "2"], "needs w * (m * w)^3 cases, above the cap of 1"),
        (["dougherty", "--alphabet", "4", "--t", "0,3,2,1"], "alphabet^5 cases, above the cap of 1"),
        (["n3-injectivity", "--m", "3", "--alpha", "2"], "ring of order 3^3 is above the cap of 1"),
    ],
)
def test_case_studies_honour_the_enum_cap(argv, message, capsys):
    assert main(["case-study", *argv, "--enum-cap", "1"]) == 2
    assert message in capsys.readouterr().err


def test_csv_format(tmp_path, capsys):
    inst, code = butterfly()
    inst_path, code_path = _write_pair(tmp_path, inst, code)
    assert main(["validate", inst_path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("edge_id,")

    argv = [
        "remove-edge",
        inst_path,
        code_path,
        "--edge",
        "bottleneck",
        "--partition",
        "builtin:cwl",
        "--format",
        "csv",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert "bottleneck" in lines[1]
    assert "True" in lines[1]


def test_benchmark_trace_hooks_find_their_names():
    """The benchmark's ``--trace 1`` wraps names of ``src/`` that it looks up
    with ``getattr`` and ``__dict__``; a deleted one makes its install raise."""
    root = Path(__file__).parent.parent
    script = (
        "from layers import Tracer\n"
        "from edgedrop.cli import main\n"
        "Tracer().install()\n"
        "raise SystemExit(main(['validate', 'tests/golden/inputs/butterfly.instance.json']))\n"
    )
    paths = [str(root / "perfbench"), str(root / "src")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


real_open = builtins.open


def _count_opens(monkeypatch) -> collections.Counter:
    """Calls of ``open``, by the path they were given, from now on."""
    opened = collections.Counter()

    def counting_open(file, *args, **kwargs):
        opened[file] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return opened


@pytest.mark.parametrize("fast_bytes", [network.FAST_READ_BYTES, 0], ids=["json", "table-reader"])
@pytest.mark.parametrize("name", ["verify", "remove-labels", "remove-cwl", "cwl-check-groups"])
def test_each_input_file_is_opened_once(name, fast_bytes, tmp_path, capsys, monkeypatch):
    """The digest of an input and its parse read the same bytes, from one
    open, on the json path and on the table reader's (which hands a file it
    cannot prove well formed back to json); reports stay the golden ones."""
    _, argv, status = next(c for c in CORPUS if c[0] == name)
    monkeypatch.chdir(GOLDEN_DIR)
    monkeypatch.setattr(network, "FAST_READ_BYTES", fast_bytes)
    out = str(tmp_path / "report.json")
    opened = _count_opens(monkeypatch)
    assert main(argv + ["--out", out]) == status
    capsys.readouterr()
    inputs = [a for a in argv if a.startswith("inputs/")]
    assert {path: opened[path] for path in inputs} == dict.fromkeys(inputs, 1)
    with real_open(out, "rb") as fh:
        assert fh.read() == (GOLDEN_DIR / f"{name}.out").read_bytes()


def test_an_input_the_command_never_parses_is_hashed_once(capsys, monkeypatch):
    """``builtin:cwl`` returns before it reads ``--groups`` when the code's
    error is above eps; the groups file is still named in the report."""
    monkeypatch.chdir(GOLDEN_DIR)
    groups = "inputs/butterfly.groups.json"
    argv = ["remove-edge", "inputs/sum44bad.instance.json", "inputs/sum44bad.code.json",
            "--edge", "e", "--partition", "builtin:cwl", "--groups", groups]
    opened = _count_opens(monkeypatch)
    assert main(argv) == 1
    report = _stdout_report(capsys)
    assert report["result"] == {"route": "cwl", "found": False, "reason": ERROR_ABOVE_EPS}
    with real_open(groups, "rb") as fh:
        assert report["inputs"][groups] == "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    assert opened[groups] == 1


# ------------------------------------------------------------ digest worker
# Inputs of at least network.THREAD_HASH_BYTES are hashed on a worker thread.


@pytest.fixture(scope="module")
def large_relay(tmp_path_factory):
    """A zero-error 128 x 128 relay whose code file is above the threshold."""
    tmp = tmp_path_factory.mktemp("large")
    sizes = [128, 128]
    inst, code = relay_instance(sizes, 2, tabulate(sizes, lambda a, b: (a + b) % 2))
    inst_path, code_path = _write_pair(tmp, inst, code)
    assert os.path.getsize(code_path) >= network.THREAD_HASH_BYTES
    bad_path = tmp / "float.code.json"
    text = Path(code_path).read_text()
    bad_path.write_text(text.replace('"e": [\n      0,', '"e": [\n      0.5,', 1))
    assert bad_path.read_text() != text
    return inst_path, code_path, str(bad_path)


def _hash_threads(monkeypatch) -> list[bool]:
    """Whether each call of the digest worker ran off the main thread."""
    off_main = []
    digest = network._digest

    def spy(raw, out):
        off_main.append(threading.current_thread() is not threading.main_thread())
        digest(raw, out)

    monkeypatch.setattr(network, "_digest", spy)
    return off_main


def _sha256(path) -> str:
    with real_open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("case", ["verified", "refuted", "float-entry", "missing-second"])
def test_digest_worker_leaves_no_thread_and_no_uncaught_error(large_relay, case, tmp_path, capsys, monkeypatch):
    inst_path, code_path, bad_path = large_relay
    argv, status = {
        "verified": (["verify", inst_path, code_path, "--rates", "7,7"], 0),
        "refuted": (["verify", inst_path, code_path, "--rates", "8,8"], 1),
        # The table reader hands the float to json, and the code is refused.
        "float-entry": (["verify", inst_path, bad_path, "--rates", "7,7"], 2),
        # The large file is read first; the missing one fails while it hashes.
        "missing-second": (["verify", code_path, str(tmp_path / "missing.json"), "--rates", "7,7"], 2),
    }[case]
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    off_main = _hash_threads(monkeypatch)
    before = threading.active_count()
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == status
    capsys.readouterr()
    assert threading.active_count() == before and hooked == []
    assert True in off_main
    if status < 2:
        report = json.loads(out.read_bytes())
        assert report["inputs"] == {path: _sha256(path) for path in argv[1:3]}
    else:
        assert not out.exists()


@pytest.mark.parametrize("offset", [-1, 0], ids=["below", "at"])
def test_digest_names_the_bytes_on_either_side_of_the_threshold(offset, tmp_path, monkeypatch):
    path = tmp_path / "input.json"
    path.write_bytes(random.Random(offset).randbytes(network.THREAD_HASH_BYTES + offset))
    off_main = _hash_threads(monkeypatch)
    before = threading.active_count()
    with network.read_once([str(path)]) as digests:
        assert digests == {}  # filled in as the block ends, after the join
    assert digests == {str(path): _sha256(path)}
    assert off_main == [offset == 0]
    assert threading.active_count() == before


def test_small_inputs_start_no_thread(monkeypatch):
    """The golden inputs, all below the threshold, are hashed inline."""
    monkeypatch.chdir(GOLDEN_DIR)
    paths = sorted(str(p.relative_to(GOLDEN_DIR)) for p in (GOLDEN_DIR / "inputs").iterdir())
    off_main = _hash_threads(monkeypatch)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    with network.read_once(paths) as digests:
        pass
    assert digests == {path: _sha256(path) for path in paths}
    assert off_main == [False] * len(paths) and started == []


class HashFailure(Exception):
    pass


@pytest.mark.parametrize("second", ["instance", "missing"])
def test_a_failing_digest_worker_exits_3_and_writes_no_report(large_relay, second, tmp_path, capsys, monkeypatch):
    """The worker's exception is raised after the join, also when the
    command itself failed meanwhile; no report carries a wrong digest."""
    inst_path, code_path, _ = large_relay

    def sha256(raw):
        if threading.current_thread() is not threading.main_thread():
            raise HashFailure("digest worker failed")
        return hashlib.sha256(raw)

    monkeypatch.setattr(network, "hashlib", types.SimpleNamespace(sha256=sha256))
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    before = threading.active_count()
    paths = [inst_path, code_path] if second == "instance" else [code_path, str(tmp_path / "missing.json")]
    out = tmp_path / "report.json"
    assert main(["verify", *paths, "--rates", "7,7", "--out", str(out)]) == 3
    assert "internal error: HashFailure('digest worker failed')" in capsys.readouterr().err
    assert not out.exists()
    assert threading.active_count() == before and hooked == []
