"""``verify`` against the benchmark's independent oracle, ``perfbench/oracle.py``.

The oracle evaluates a code's JSON form one source tuple at a time and
imports nothing of ``edgedrop``, so it checks the program the way the
benchmark does, on small seeded codes, every time the tests run.  The file is
read, never written: it is compiled from its text, so no bytecode cache is
left beside it.
"""

import json
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import as_lists, random_code, random_instance
from edgedrop.cli import main
from edgedrop.codes import code_to_dict
from edgedrop.network import instance_to_dict

ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


@pytest.fixture(scope="module")
def oracle():
    module = types.ModuleType("perfbench_oracle")
    module.__file__ = str(ORACLE_PATH)
    exec(compile(ORACLE_PATH.read_text(), str(ORACLE_PATH), "exec"), module.__dict__)
    return module


def test_verify_reports_the_oracles_exact_errors(oracle, tmp_path, capsys):
    rng = random.Random(2024)
    verdicts = set()
    for i in range(30):
        inst = random_instance(rng)
        code = random_code(rng, inst)
        inst_data, code_data = instance_to_dict(inst), as_lists(code_to_dict(code))
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
