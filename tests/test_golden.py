"""Golden reports: a fixed CLI corpus must keep producing identical bytes.

Every command runs from ``tests/golden`` with relative input paths, so the
``inputs`` keys of each report are stable.  The inputs under
``tests/golden/inputs`` are small explicit codes (the butterfly, relays over
sum, parity, AND and shifted functions, one relay with a corrupted decoder
row per parity class) plus label, group, piece and characterization files.
The instance and code files written under ``--emit`` are kept in
``tests/golden/emit``, named after the prefix the command was given.
To record new golden reports after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import json
import os
import pathlib
import sys
import tempfile

import pytest

from edgedrop.cli import main
from edgedrop.network import json_bytes

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
EMIT_DIR = GOLDEN_DIR / "emit"

# name, argv, exit status
CORPUS = [
    ("validate", ["validate", "inputs/butterfly.instance.json"], 0),
    (
        "verify",
        ["verify", "inputs/butterfly.instance.json", "inputs/butterfly.code.json",
         "--rates", "1,1"],
        0,
    ),
    (
        "verify-eps-pass",
        ["verify", "inputs/sum44bad.instance.json", "inputs/sum44bad.code.json",
         "--rates", "#4,#4", "--eps", "1/2"],
        0,
    ),
    (
        "verify-eps-fail",
        ["verify", "inputs/sum44bad.instance.json", "inputs/sum44bad.code.json",
         "--rates", "#4,#4", "--eps", "1/4"],
        1,
    ),
    (
        "remove-cwl",
        ["remove-edge", "inputs/butterfly.instance.json", "inputs/butterfly.code.json",
         "--edge", "bottleneck", "--partition", "builtin:cwl"],
        0,
    ),
    (
        "remove-cwl-sum33",
        ["remove-edge", "inputs/sum33.instance.json", "inputs/sum33.code.json",
         "--edge", "e", "--partition", "builtin:cwl"],
        0,
    ),
    (
        "remove-edge-value",
        ["remove-edge", "inputs/parity43.instance.json", "inputs/parity43.code.json",
         "--edge", "e", "--partition", "builtin:edge-value"],
        0,
    ),
    (
        "remove-edge-value-not-products",
        ["remove-edge", "inputs/butterfly.instance.json", "inputs/butterfly.code.json",
         "--edge", "bottleneck", "--partition", "builtin:edge-value"],
        1,
    ),
    (
        "remove-labels",
        ["remove-edge", "inputs/butterfly.instance.json", "inputs/butterfly.code.json",
         "--edge", "bottleneck", "--partition", "inputs/butterfly.singles.json"],
        0,
    ),
    (
        "remove-labels-undetermined",
        ["remove-edge", "inputs/butterfly.instance.json", "inputs/butterfly.code.json",
         "--edge", "bottleneck", "--partition", "inputs/butterfly.byfirst.json"],
        1,
    ),
    (
        "remove-labels-classes",
        ["remove-edge", "inputs/sum44.instance.json", "inputs/sum44.code.json",
         "--edge", "e", "--partition", "inputs/sum44.parity.json"],
        0,
    ),
    (
        "remove-labels-eps",
        ["remove-edge", "inputs/sum44bad.instance.json", "inputs/sum44bad.code.json",
         "--edge", "e", "--partition", "inputs/sum44.parity.json", "--eps", "1/2"],
        0,
    ),
    (
        "remove-labels-eps-none",
        ["remove-edge", "inputs/sum44bad.instance.json", "inputs/sum44bad.code.json",
         "--edge", "e", "--partition", "inputs/sum44.parity.json", "--eps", "1/4"],
        1,
    ),
    (
        "cwl-check",
        ["cwl-check", "inputs/butterfly.instance.json", "inputs/butterfly.code.json",
         "--edge", "bottleneck"],
        0,
    ),
    (
        "cwl-check-groups",
        ["cwl-check", "inputs/butterfly.instance.json", "inputs/butterfly.code.json",
         "--edge", "bottleneck", "--groups", "inputs/butterfly.groups.json"],
        0,
    ),
    (
        "cwl-search",
        ["cwl-search", "inputs/sum33.instance.json", "inputs/sum33.code.json",
         "--edge", "e"],
        0,
    ),
    (
        "cwl-search-rewrite",
        ["cwl-search", "inputs/and22.instance.json", "inputs/and22.code.json",
         "--edge", "e"],
        0,
    ),
    (
        "cwl-search-no-rewrite",
        ["cwl-search", "inputs/and22.instance.json", "inputs/and22.code.json",
         "--edge", "e", "--rewrites", "0"],
        1,
    ),
    (
        "pwl-remove",
        ["pwl-remove", "inputs/shift44.instance.json", "inputs/shift44.code.json",
         "--edge", "e", "--pieces", "inputs/shift44.pieces.json"],
        0,
    ),
    (
        "group-remove-klein",
        ["group-remove", "inputs/klein.json", "--edge", "e", "--sources", "s1,s2"],
        0,
    ),
    (
        "group-remove-z4z4",
        ["group-remove", "inputs/z4z4.json", "--edge", "e", "--sources", "s1,s2"],
        0,
    ),
    (
        "group-remove-z4z4-f",
        ["group-remove", "inputs/z4z4.json", "--edge", "f", "--sources", "s1,s2"],
        0,
    ),
    (
        "group-zero-error-klein",
        ["group-zero-error", "inputs/klein.json", "--demand", "e:s1",
         "--demand", "s1:s1"],
        1,
    ),
    (
        "group-zero-error-z4z4",
        ["group-zero-error", "inputs/z4z4.json", "--demand", "k:s1",
         "--demand", "s2:s2"],
        0,
    ),
    (
        "group-zero-error-z4z4-high",
        ["group-zero-error", "inputs/z4z4.json", "--demand", "f:s1",
         "--demand", "e:s2"],
        1,
    ),
    ("case-study-butterfly", ["case-study", "butterfly"], 0),
    (
        "remove-cwl-csv",
        ["remove-edge", "inputs/butterfly.instance.json", "inputs/butterfly.code.json",
         "--edge", "bottleneck", "--partition", "builtin:cwl", "--format", "csv"],
        0,
    ),
]

# Corpus entries whose command also writes files under an --emit prefix.
EMIT_CORPUS = [c for c in CORPUS if c[0] in ("remove-cwl", "case-study-butterfly")]


def _run(argv: list[str], out_dir: str) -> tuple[int, bytes]:
    """Run one command from the golden directory; returns status and report."""
    out_path = os.path.join(out_dir, "report")
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        status = main(argv + ["--out", out_path])
    finally:
        os.chdir(cwd)
    with open(out_path, "rb") as fh:
        return status, fh.read()


@pytest.mark.parametrize("name, argv, status", CORPUS, ids=[c[0] for c in CORPUS])
def test_golden_report(name, argv, status, tmp_path, capsys):
    got_status, payload = _run(argv, str(tmp_path))
    capsys.readouterr()
    assert got_status == status
    assert payload == (GOLDEN_DIR / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name, argv, status", EMIT_CORPUS, ids=[c[0] for c in EMIT_CORPUS])
def test_golden_emit_files(name, argv, status, tmp_path, capsys):
    emit_dir = tmp_path / "emit"
    emit_dir.mkdir()
    got_status, payload = _run(argv + ["--emit", str(emit_dir / name)], str(tmp_path))
    capsys.readouterr()
    assert got_status == status
    assert payload == (GOLDEN_DIR / f"{name}.out").read_bytes()
    written = sorted(p.name for p in emit_dir.iterdir())
    assert written == sorted(p.name for p in EMIT_DIR.glob(f"{name}.*"))
    for file_name in written:
        assert (emit_dir / file_name).read_bytes() == (EMIT_DIR / file_name).read_bytes()


JSON_GOLDENS = [p for p in sorted(GOLDEN_DIR.glob("*.out")) if not p.name.endswith("-csv.out")]


@pytest.mark.parametrize(
    "path", JSON_GOLDENS + sorted(EMIT_DIR.glob("*.json")), ids=lambda p: p.name
)
def test_writer_reproduces_golden_files(path):
    """The writer and its oracle, ``json.dumps``, both give back every file."""
    text = path.read_text()
    assert json_bytes(json.loads(text)).decode() + "\n" == text
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv, status in CORPUS:
            got_status, payload = _run(argv, scratch)
            if got_status != status:
                sys.exit(f"{name}: exit {got_status}, expected {status}")
            (GOLDEN_DIR / f"{name}.out").write_bytes(payload)
        for old in EMIT_DIR.glob("*.json"):
            old.unlink()
        for name, argv, _ in EMIT_CORPUS:
            _run(argv + ["--emit", str(EMIT_DIR / name)], scratch)
