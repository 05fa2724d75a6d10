"""Benchmark for the edgedrop workbench.

Usage::

    python3 perfbench/run.py --workload large-tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The inputs are generated from the seed into
``.perfbench_work/`` and handed to ``edgedrop.cli.main`` in a fresh
interpreter (``child.py``), which repeats whole rounds of the workload's
invocations for ``--seconds``.  Every exit status and report is then checked
against the independent oracle (``oracle.py``), and the checks are themselves
checked by feeding them mutated reports.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from ``layers.py``.  End-to-end times are given at the
reference speed of ``reference.py``, timed in the same processes; the raw
figures go to standard error.
"""

from __future__ import annotations

import argparse
import bisect
import copy
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from oracle import Evaluator, OracleError  # noqa: E402
from reference import NOMINAL_IMPORT_S, NOMINAL_S, REFERENCE_MODULES  # noqa: E402
from workloads import WORKLOADS, Workspace  # noqa: E402

# Pairs of fresh interpreters timed per run for setup_s: one imports
# edgedrop.cli, the next the reference modules.  The median ratio is reported.
SETUP_PAIRS = 11
IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
CHILD_TIMEOUT_S = 150
# An invocation's time is scaled by the reference passes within this many
# seconds of it.
REFERENCE_WINDOW_S = 1.0


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median import time of edgedrop.cli, raw and at the reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_PAIRS):
        pair = []
        for modules in ("edgedrop.cli", REFERENCE_MODULES):
            out = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE.format(modules)],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            pair.append(float(out.stdout))
        raw.append(pair[0])
        scaled.append(pair[0] * NOMINAL_IMPORT_S / pair[1])
    return statistics.median(raw), statistics.median(scaled)


def judge(job, status: int, report: dict | None) -> list[str]:
    """Everything wrong with one invocation's exit status and report."""
    problems = []
    if status != job.status:
        problems.append(f"exit status {status}, expected {job.status}")
    if report is None:
        return problems + ["no report written"]
    if report.get("command") != job.argv:
        problems.append("report echoes another command")
    try:
        problems += job.check(report)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OracleError) as exc:
        problems.append(f"report does not have the expected shape: {exc!r}")
    return problems


def reference_scales(records, references) -> list[float]:
    """Per invocation, NOMINAL_S over the median nearby reference time.

    Raw seconds times the scale are seconds at the reference speed.  The
    reference passes that ended within ``REFERENCE_WINDOW_S`` of the
    invocation are used; ``child.py`` runs at least one right after any
    invocation that puts the reference time behind its share.
    """
    ends = [t for t, _ in references]
    scales = []
    for record in records:
        wall, start = record[3], record[5]
        lo = bisect.bisect_left(ends, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(ends, start + wall + REFERENCE_WINDOW_S)
        scales.append(NOMINAL_S / statistics.median(r for _, r in references[lo:hi]))
    return scales


# ------------------------------------------------------------ self-check


def _certificates(result: dict) -> list[dict]:
    if "certificate" in result:
        return [result]
    return [r for r in result.get("runs", []) if "certificate" in r]


def _flip_verdict(job, report):
    result = report["result"]
    if "feasibility" in result:
        result["feasibility"]["verdict"] = not result["feasibility"]["verdict"]
    elif "found" in result:
        result["found"] = not result["found"]
    return 1 - job.status, report


def _corrupt_restricted_row(job, report):
    """Make the restricted code decode its first kept tuple wrongly."""
    for entry in _certificates(report["result"]):
        if entry["certificate"]["eps"] != "0":
            continue
        inst, code = entry["restricted_instance"], entry["restricted_code"]
        ev = Evaluator(inst, code)
        y = [0] * len(ev.sizes)
        t, _, _, demanded, rows = ev.terminals[0]
        row = rows[ev.decoder_index(0, ev.edge_values(y))]
        size = ev.sizes[demanded[0]]
        row[0] = (row[0] + 1) % size if size > 1 else 1
        return job.status, report
    return None


def _wrong_witness_entry(job, report):
    witness = report["result"].get("witness")
    if not witness:
        return None
    hom = witness["hom"]
    order = len(witness["edge_support"])
    hom[1] = (hom[1] + 1) % order if order > 1 else 1
    return job.status, report


MUTATIONS = {
    "flipped verdict": _flip_verdict,
    "corrupted restricted-decoder row": _corrupt_restricted_row,
    "wrong witness entry": _wrong_witness_entry,
}


def self_check(jobs, reports: dict) -> tuple[int, int, list[str]]:
    """Apply each mutation to the first passing report it fits.

    Returns (caught, applied, names of mutations that slipped through).
    """
    caught = applied = 0
    missed = []
    for name, mutate in MUTATIONS.items():
        for j, report in sorted(reports.items()):
            mutated = mutate(jobs[j], copy.deepcopy(report))
            if mutated is None:
                continue
            applied += 1
            if judge(jobs[j], *mutated):
                caught += 1
            else:
                missed.append(name)
            break
    return caught, applied, missed


# ------------------------------------------------------------------ run


def run(workload: str, seed: int, seconds: int, trace: bool, work: str) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](Workspace(work), rng)
    with open(os.path.join(work, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump([job.argv for job in jobs], fh)
    env = dict(os.environ, PYTHONPATH=SRC)
    setup = None if trace else setup_seconds(env)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "jobs.json", "results.json",
         str(seconds), "1" if trace else "0"],
        cwd=work, env=env, timeout=CHILD_TIMEOUT_S, check=True,
    )
    with open(os.path.join(work, "results.json"), encoding="utf-8") as fh:
        results = json.load(fh)

    first: dict[int, tuple[str, bool]] = {}
    passing: dict[int, dict] = {}
    failed = 0
    for rnd, j, status, wall, stderr, _ in results["records"]:
        path = os.path.join(work, "out", f"{rnd}.{j}.json")
        payload = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                payload = fh.read()
        if rnd == 0:
            report = json.loads(payload) if payload is not None else None
            problems = judge(jobs[j], status, report)
            digest = hashlib.sha256(payload or b"").hexdigest()
            first[j] = (digest, not problems)
            if not problems:
                passing[j] = report
        elif status != jobs[j].status or payload is None:
            problems = [f"exit status {status}, expected {jobs[j].status}"]
        elif hashlib.sha256(payload).hexdigest() != first[j][0]:
            problems = ["report differs from the first round's"]
        else:
            problems = [] if first[j][1] else ["same report as a failed first round"]
        if problems:
            failed += 1
            if failed <= 5:
                print(f"FAILED {' '.join(jobs[j].argv)}: {problems[:3]} {stderr}", file=sys.stderr)

    caught, applied, missed = self_check(jobs, passing)
    print(f"self-check: {caught}/{applied} mutations caught {missed or ''}", file=sys.stderr)
    attempted = len(results["records"])
    walls = [r[3] for r in results["records"]]
    scales = reference_scales(results["records"], results["references"])
    scaled_walls = [w * f for w, f in zip(walls, scales)]
    # Seconds at the reference speed per raw second, over the whole run.
    scale = sum(scaled_walls) / sum(walls)
    print(
        f"{workload} seed {seed}: {results['rounds']} rounds of {len(jobs)} jobs in "
        f"{results['wall']:.2f}s, {results['wall'] * scale / results['rounds']:.2f}s a round "
        f"at reference speed ({len(results['references'])} reference passes)",
        file=sys.stderr,
    )
    if trace:
        metrics = results["layers"]
    else:
        raw = {
            "verdicts_per_s": (attempted - failed) / results["wall"],
            "job_p50_s": statistics.median(walls),
            "cpu_s_per_job": results["cpu"] / attempted,
            "setup_s": setup[0],
        }
        print(f"raw: {json.dumps(raw)}; scale {scale:.3f}", file=sys.stderr)
        metrics = {
            "verdicts_per_s": {"value": raw["verdicts_per_s"] / scale, "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(scaled_walls), "unit": "s"},
            "cpu_s_per_job": {"value": raw["cpu_s_per_job"] * scale, "unit": "s"},
            "setup_s": {"value": setup[1], "unit": "s"},
            "peak_rss_mb": {"value": results["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
    return {
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "edgedrop", "cli.py")):
        print(f"error: no edgedrop sources under {SRC}", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
