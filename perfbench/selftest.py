#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about two minutes).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--catalogue]

Checks that the same seed generates the same inputs; that a reduced
run of each workload prints every named metric, traced and untraced;
that its span file passes ``tools/check_trace.py``; that work counts
repeat exactly across two runs with the same seed; that an injected
wrong output raises the failed share; that the diff flags a changed
count; and that the runner refuses a directory without the program.
``--catalogue``
also runs every job the service mix can draw, in-process, and checks
every sweep point is feasible (about three minutes more).  Exit 0 when
all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import diff  # noqa: E402
from metrics import BOUNDS, END_TO_END, EXACT, PER_LAYER, \
    WORKLOADS  # noqa: E402

FAILURES = []

#: the named figures each workload's human row must carry.
ROW_FIGURES = {
    "ladder": ("setup_s", "wall_s", "qor_area", "qor_latency_cycles",
               "peak_rss_mb", "failed_share"),
    "grid": ("setup_s", "wall_s", "points_per_s", "warm_points_per_s",
             "feasible_points", "peak_rss_mb", "failed_share"),
    "service": ("setup_s", "job_latency_p50_s", "job_latency_p95_s",
                "jobs_per_s", "latency_samples", "failed_share"),
    "verify": ("setup_s", "wall_s", "sim_cycles_per_s", "qor_area",
               "qor_latency_cycles", "peak_rss_mb", "failed_share"),
}


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run(workload, seed, trace, *extra, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc, lines, result


def test_inputs_repeat() -> None:
    import grid
    import ladder
    import service
    import verify

    def rounds(seed):
        mix = service.JobMix(seed)
        return json.dumps([mix.next_round() for _ in range(3)],
                          sort_keys=True, default=str)

    def vectors(seed):
        state = verify.setup(seed, True)
        return json.dumps([[k["vectors"] for k in state["kernels"]],
                           state["legacy"],
                           [p["vectors"] for p in state["pipelines"]]])

    generators = {
        "ladder": lambda s: ladder.setup(s, True)["order"],
        "grid": lambda s: grid.setup(s, True)["plan"],
        "service": rounds,
        "verify": vectors,
    }
    for name, make in generators.items():
        expect(make(7) == make(7), f"{name}: seed 7 twice, same inputs")
    for name in ("service", "verify"):
        expect(generators[name](7) != generators[name](8),
               f"{name}: seeds 7 and 8 give different inputs")


def test_workload(workload: str) -> None:
    proc, lines, result = run(workload, 3, 0)
    expect(proc.returncode == 0 and result and result["correct"],
           f"{workload}: smoke run is correct (rc {proc.returncode})")
    if result:
        expect(set(result["metrics"]) == set(END_TO_END),
               f"{workload}: every end-to-end metric reported")
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               f"{workload}: no end-to-end metric is 0")
        row = lines[-2]
        expect(all(f" {name}=" in f" {row}"
                   for name in ROW_FIGURES[workload]),
               f"{workload}: the row names {ROW_FIGURES[workload]}")

    spans = os.path.join(ROOT, ".perfbench", "selftest",
                         f"{workload}.jsonl")
    traced = []
    for _ in range(2):
        proc, _lines, result = run(workload, 3, 1, "--spans", spans)
        traced.append(result)
    ok = all(r and r["correct"] for r in traced)
    expect(ok, f"{workload}: traced runs are correct")
    if ok:
        expect(set(traced[0]["metrics"]) == set(PER_LAYER),
               f"{workload}: every per-layer metric reported")
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "check_trace.py"),
             spans], cwd=ROOT, capture_output=True, text=True)
        expect(check.returncode == 0,
               f"{workload}: span file passes tools/check_trace.py "
               f"{check.stderr.strip()[:200]}")
        differ = [n for n in sorted(EXACT)
                  if traced[0]["metrics"][n] != traced[1]["metrics"][n]]
        expect(not differ, f"{workload}: work counts repeat exactly "
                           f"{differ}")

    proc, _lines, result = run(workload, 3, 0, "--inject-fault")
    expect(proc.returncode == 1 and result and result["failed"] > 0
           and not result["correct"],
           f"{workload}: an injected wrong output is caught")


def test_diff() -> None:
    record = {"workload": "ladder", "seed": 1, "trace": 1, "correct": True,
              "attempted": 1, "failed": 0,
              "metrics": {"core.passes": {"value": 10, "unit": "count"}}}
    changed = json.loads(json.dumps(record))
    changed["metrics"]["core.passes"]["value"] = 11
    _lines, same = diff.compare([record], [record], BOUNDS)
    _lines, moved = diff.compare([record], [changed], BOUNDS)
    expect(same and not moved, "diff: a changed work count is flagged")


def test_catalogue() -> None:
    """Every job the service mix can draw succeeds."""
    import service
    from repro.service.execution import execute_job, normalize_params

    failing = []
    for kind, params in service.catalogue():
        ok, result, _stats = execute_job(
            kind, normalize_params(kind, params))
        if not ok or result.get("infeasible"):
            failing.append((kind, params))
    expect(not failing, f"service: every catalogue job succeeds "
                        f"{failing[:3]}")


def test_refuses_without_program() -> None:
    bare = tempfile.mkdtemp(prefix="bare-",
                            dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines, result = run(
            "verify", 1, 0, cwd=bare,
            script=os.path.join(bare, "perfbench", "run.py"))
        expect(proc.returncode != 0 and result is None,
               "a directory without the program: nonzero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    test_inputs_repeat()
    test_diff()
    test_refuses_without_program()
    for workload in WORKLOADS:
        test_workload(workload)
    if "--catalogue" in sys.argv[1:]:
        test_catalogue()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
