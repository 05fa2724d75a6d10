"""``verify`` and the golden reports against the benchmark's independent
oracle, ``perfbench/oracle.py``.

The oracle evaluates a code's JSON form one source tuple at a time and
imports nothing of ``edgedrop``, so it checks the program the way the
benchmark does, on small seeded codes, on every removal certificate and
CWL witness in the golden reports, and on the report that each removal
route writes with ``--out``, every time the tests run.  The file is
read, never written: it is compiled from its text, so no bytecode cache is
left beside it (the ``oracle`` fixture in ``conftest.py``).
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import json_bytes, random_code, random_instance
from test_golden import CORPUS, EMIT_DIR, GOLDEN_DIR
from edgedrop.cli import BUILTIN_ROUTES, build_parser, main


def test_verify_reports_the_oracles_exact_errors(oracle, tmp_path, capsys):
    rng = random.Random(2024)
    verdicts = set()
    for i in range(30):
        inst = random_instance(rng)
        code = random_code(rng, inst)
        inst_data, code_data = json.loads(json_bytes(inst)), json.loads(json_bytes(code))
        paths = [str(tmp_path / f"{i}.instance.json"), str(tmp_path / f"{i}.code.json")]
        for path, data in zip(paths, (inst_data, code_data)):
            Path(path).write_text(json.dumps(data))
        table = oracle.Table(inst_data, code_data)
        verdict = oracle.feasible(table, Fraction(0), table.sizes)
        verdicts.add(verdict)
        out = tmp_path / f"{i}.report.json"
        rates = ",".join(f"#{s}" for s in table.sizes)
        assert main(["verify", *paths, "--rates", rates, "--out", str(out)]) == (0 if verdict else 1)
        feasibility = json.loads(out.read_text())["result"]["feasibility"]
        assert feasibility["num_tuples"] == table.n
        assert Fraction(feasibility["error"]) == table.error, i
        assert {t: Fraction(e) for t, e in feasibility["per_terminal_error"].items()} == {
            t: table.terminal_error(t) for t in table.wrong_counts
        }, i
    capsys.readouterr()
    assert verdicts == {True, False}


def _golden(path) -> dict:
    return json.loads((GOLDEN_DIR / path).read_text())


def _flag(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


JSON_CORPUS = [(name, argv, _golden(f"{name}.out")["result"]) for name, argv, _ in CORPUS
               if not name.endswith("-csv")]


def _removals():
    """Each golden removal: the original instance and code, the edge, the
    eps and the report fields that carry the certificate."""
    for name, argv, result in JSON_CORPUS:
        if argv[0] == "group-remove":  # the materialized relay's edge is "e"
            originals = result["materialized_instance"], result["materialized_code"]
            yield name, (*originals, "e", Fraction(0), result)
        elif argv[0] == "case-study":  # the originals are the emitted files
            for run in result["runs"]:
                stem = f"{name}.{run['name']}"
                originals = [_golden(EMIT_DIR / f"{stem}.{kind}.json") for kind in ("instance", "code")]
                yield stem, (*originals, "bottleneck", Fraction(0), run)
        elif "certificate" in result:
            eps = Fraction(_flag(argv, "--eps", "0"))
            yield name, (_golden(argv[1]), _golden(argv[2]), _flag(argv, "--edge"), eps, result)


def _witnesses():
    """Each golden CWL witness with the instance and code it certifies: the
    rewritten code where the search rewrote the edge."""
    for name, argv, result in JSON_CORPUS:
        if result.get("witness") is not None:
            code = result["rewritten_code"] if result.get("rewritten") else _golden(argv[2])
            yield name, (result["witness"], _golden(argv[1]), code, _flag(argv, "--edge"))


REMOVALS = dict(_removals())
WITNESSES = dict(_witnesses())


def test_the_audit_covers_every_golden_certificate_and_witness():
    assert len(REMOVALS) == 12  # 7 removal commands, 3 group-remove, 2 butterfly runs
    assert {n for n in WITNESSES if n.startswith("cwl-")} == {
        "cwl-check", "cwl-check-groups", "cwl-search", "cwl-search-rewrite"
    }


@pytest.mark.parametrize("name", REMOVALS)
def test_golden_certificates_pass_the_oracle(oracle, name):
    inst, code, edge_id, eps, result = REMOVALS[name]
    assert oracle.check_certificate(inst, code, edge_id, eps, result) == []


@pytest.mark.parametrize("name", WITNESSES)
def test_golden_witnesses_pass_the_oracle(oracle, name):
    witness, inst, code, edge_id = WITNESSES[name]
    table = oracle.Table(inst, code)
    assert oracle.check_witness(witness, table.columns[edge_id], table.sizes) == []


# One golden command for each removal route: a label file and each builtin
# partition of ``remove-edge``, and each other command that removes an edge.
ROUTE_CASES = {
    "labels": "remove-labels-eps",
    "builtin:edge-value": "remove-edge-value",
    "builtin:cwl": "remove-cwl-sum33",
    "pwl-remove": "pwl-remove",
    "group-remove": "group-remove-z4z4",
}


def _route(argv: list[str]) -> str:
    if argv[0] != "remove-edge":
        return argv[0]
    partition = _flag(argv, "--partition")
    return partition if partition in BUILTIN_ROUTES else "labels"


def test_every_removal_route_has_a_case():
    """The routes are read from the parser: ``remove-edge``'s label files
    and builtin partitions, and every other command that takes ``--emit``
    (``case-study`` runs its butterflies through the cwl route)."""
    commands = build_parser()._subparsers._group_actions[0].choices
    emitting = {name for name, sub in commands.items() if "--emit" in sub._option_string_actions}
    assert set(ROUTE_CASES) == {"labels", *BUILTIN_ROUTES} | emitting - {"remove-edge"}
    argvs = {name: argv for name, argv, _ in CORPUS}
    assert {route: _route(argvs[name]) for route, name in ROUTE_CASES.items()} == {
        route: route for route in ROUTE_CASES
    }


@pytest.mark.parametrize("route", ROUTE_CASES)
def test_every_removal_routes_written_report_passes_the_oracle(
    oracle, route, tmp_path, monkeypatch, capsys
):
    """Each route runs on its golden inputs and writes its report with
    ``--out``; the oracle re-checks the certificate in the file against the
    original code, which for ``group-remove`` is the materialized one."""
    argv = next(argv for name, argv, _ in CORPUS if name == ROUTE_CASES[route])
    out = tmp_path / "report.json"
    monkeypatch.chdir(GOLDEN_DIR)
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    result = json.loads(out.read_text())["result"]
    if route == "group-remove":
        inst, code, edge_id = result["materialized_instance"], result["materialized_code"], "e"
    else:
        inst, code, edge_id = _golden(argv[1]), _golden(argv[2]), _flag(argv, "--edge")
    eps = Fraction(_flag(argv, "--eps", "0"))
    assert oracle.check_certificate(inst, code, edge_id, eps, result) == []
