#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 22 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` records benchmark-side spans around every layer call and
reports the per-layer metrics instead, writing the spans as a JSONL
trace under ``.perfbench/spans/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` (the
correctness checks of the run) and ``metrics``; the batch workloads
give their times in reference-host seconds (see ``harness.UnitTimer``).
The line above it is a human-readable row of the workload's own
headline figures.

The exit code is 0 for a correct run, 1 when a correctness check
failed, and 2 when the program to measure is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench")

from harness import Checks, Deadline, LayerView, Recorder, calibrate, \
    median, peak_rss_mb, ratio, reference_s  # noqa: E402
from metrics import END_TO_END, PER_LAYER, RATIOS, WORKLOADS  # noqa: E402

#: set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: calibration runs after each set-up sample (see ``_setup_samples``).
SETUP_CALIB = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs (self-tests)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one output (self-tests)")
    parser.add_argument("--spans", default=None,
                        help="trace file (default .perfbench/spans/...)")
    parser.add_argument("--save", default=None,
                        help="append the result line to this JSONL file")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_probe(args) -> int:
    """One set-up sample in a fresh interpreter (imports included)."""
    t0 = time.perf_counter()
    importlib.import_module(args.workload).setup(args.seed, args.smoke)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _probe_again(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True, timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def _setup_samples(mod, args, state, first_s):
    """``setup_s`` samples: server boot-to-healthz times for a workload
    that boots one, else this process's set-up plus fresh-interpreter
    repeats of it.  Each is in reference-host seconds, scaled by the
    calibration runs made here right after it, as ``harness.UnitTimer``
    scales its repeats (unscaled, the ladder's ``setup_s`` spread 0.37
    of its median over ten seeds on a shared 2-CPU host)."""
    if hasattr(mod, "start"):
        first_s = mod.start(state)

        def again(i):
            return mod.setup_again(state, i)
    else:
        def again(_i):
            return _probe_again(args)
    samples = [reference_s(first_s, calibrate(SETUP_CALIB))]
    for i in range(SETUP_SAMPLES - 1):
        seconds = again(i)
        samples.append(reference_s(seconds, calibrate(SETUP_CALIB)))
    return samples


def _end_to_end(result, setup_samples) -> dict:
    latencies = result["latencies"]
    values = {
        "setup_s": median(setup_samples),
        "wall_s": result["wall"],
        "rate_per_s": result["rate"],
        "latency_p50_s": median(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in END_TO_END.items()}


def _per_layer(mod, rec, state, result) -> dict:
    view = LayerView(rec, mod.ROOT_SPAN)
    values = {name: 0 for name in PER_LAYER}
    values.update(mod.layers(view, state, result))
    for name, (hits, base) in RATIOS.items():
        values[name] = ratio(values[hits], values[base])
    values["trace.wall_s"] = result["wall"]
    values["trace.spans"] = len(rec.spans)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"per-layer metrics missing from the catalogue: "
                       f"{sorted(unknown)}")
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER}


def _row(workload, seed, trace, named, setup_s, checks) -> str:
    """The human-readable row: the workload's own headline figures."""
    cells = [f"{workload}", f"seed={seed}", f"trace={trace}",
             f"setup_s={setup_s:.4g} s"]
    for name, (value, unit) in named.items():
        cells.append(f"{name}={value:.6g} {unit}")
    cells.append(f"peak_rss_mb={peak_rss_mb():.4g} MiB")
    share = checks.failed / checks.attempted if checks.attempted else 1.0
    cells.append(f"failed_share={share:.4g} "
                 f"({checks.failed}/{checks.attempted})")
    return "  ".join(cells)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is "
              f"missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_probe:
        return _setup_probe(args)

    mod = importlib.import_module(args.workload)
    # a TERM must still run the clean-up below (the service's server)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    checks = Checks()
    state = None
    try:
        t0 = time.perf_counter()
        state = mod.setup(args.seed, args.smoke)
        state.update(root=ROOT, tmp=tmp)
        setup_samples = _setup_samples(mod, args, state,
                                       time.perf_counter() - t0)
        from repro.obs import REGISTRY
        from repro.obs.trace import TRACE_SCHEMA

        rec = Recorder(bool(args.trace), REGISTRY)
        result = mod.run(state, rec, Deadline(args.seconds), checks,
                         args.inject_fault)
    finally:
        if state is not None and hasattr(mod, "stop"):
            mod.stop(state)
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics = _per_layer(mod, rec, state, result)
        path = args.spans or os.path.join(
            OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        rec.write_jsonl(path, TRACE_SCHEMA)
        print(f"spans: {path} ({len(rec.spans)} spans)")
    else:
        metrics = _end_to_end(result, setup_samples)
    for failure in checks.failures[:20]:
        print(f"FAILED: {failure}")
    print(_row(args.workload, args.seed, args.trace, result["named"],
               median(setup_samples), checks))
    line = {"correct": checks.failed == 0 and checks.attempted > 0,
            "attempted": max(checks.attempted, 1),
            "failed": checks.failed if checks.attempted else 1,
            "metrics": metrics}
    if args.save:
        with open(args.save, "a") as handle:
            handle.write(json.dumps(dict(
                line, workload=args.workload, seed=args.seed,
                trace=args.trace), sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
