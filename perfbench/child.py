"""The timed process: runs one workload's invocations in whole rounds.

Usage: ``python3 child.py JOBS RESULTS SECONDS TRACE``, started by ``run.py``
in the work directory with ``edgedrop`` importable.  Each invocation goes
through ``edgedrop.cli.main(argv)`` in this process and writes its report with
``--out out/<round>.<job>.json``.  Rounds repeat until ``SECONDS`` have passed;
the last round always completes.  Between invocations the reference work of
``reference.py`` is timed, taking about a fifth as long as the invocations,
so the run knows how fast the machine was while it ran; that time is left out
of the timed phase.  Inputs were written before this process started, so its
peak resident memory is the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from reference import reference_seconds

# Reference time kept at about this share of the invocations' time.
REFERENCE_SHARE = 0.2


def main(jobs_path: str, results_path: str, seconds: float, trace: bool) -> None:
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    from edgedrop.cli import main as edgedrop_main

    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    os.makedirs("out", exist_ok=True)
    records = []
    reference_seconds()  # warm-up, not kept
    references = []
    reference_wall = reference_cpu = job_wall = 0.0
    rounds = 0
    cpu0 = os.times()
    t0 = time.perf_counter()
    while True:
        for j, argv in enumerate(jobs):
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    status = edgedrop_main(argv + ["--out", f"out/{rounds}.{j}.json"])
            except Exception:
                status = -1
                sink.write(traceback.format_exc())
            wall = time.perf_counter() - start
            records.append([rounds, j, status, wall, sink.getvalue()[-400:] if status not in (0, 1) else "", start - t0])
            job_wall += wall
            while reference_wall < REFERENCE_SHARE * job_wall:
                cpu_start = time.process_time()
                seconds_taken = reference_seconds()
                reference_cpu += time.process_time() - cpu_start
                reference_wall += seconds_taken
                references.append([time.perf_counter() - t0, seconds_taken])
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            break
    wall_total = time.perf_counter() - t0
    cpu1 = os.times()
    cpu = sum(cpu1[:4]) - sum(cpu0[:4]) - reference_cpu
    result = {
        "rounds": rounds,
        "wall": wall_total - reference_wall,
        "cpu": cpu,
        "references": references,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
    }
    if tracer is not None:
        result["layers"] = tracer.per_round(rounds)
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1")
