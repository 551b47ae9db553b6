"""verify: compile, emit and execute a fixed kernel set against oracles.

One pass covers seven kernels:

* the three CHStone pyfront kernels (``adpcm``, ``jpeg_dct``, ``mips``),
  compiled from their source text, scheduled, emitted as Verilog and
  simulated cycle by cycle on seeded random input vectors against the
  same functions run under CPython;
* a mini-language (legacy frontend) kernel, compiled from source text
  and simulated against the reference interpreter of its region;
* the three ``PIPELINE_REGISTRY`` compositions, composed, emitted as
  Verilog and machine-simulated against the token-stream oracle on
  seeded random input streams.

Simulation is most of the cost; the frontend, RTL and dataflow layers
get their only in-process measurement here.  The pass repeats for the
length of the run and each kernel's median repeat, in reference-host
seconds, is its time (see ``harness.UnitTimer``).  The kernels are
fixed and the seed draws the input vectors, whose values do not change
the simulated cycle counts, so every seed does the same work.
"""

from __future__ import annotations

import inspect
import random
import time

from harness import Checks, Deadline, LayerView, Recorder, UnitTimer

CLOCK_PS = 1600.0
VECTORS = 8
#: the span enclosing one measured iteration (its first holds the counts).
ROOT_SPAN = "verify.pass"

#: array parameters each CHStone kernel reads, as (words, lo, hi) of
#: the seeded random contents; the other arrays keep their defaults.
RANDOM_ARRAYS = {
    "adpcm": {"x": (16, -2048, 2047)},
    "jpeg_dct": {"blk": (64, -128, 127)},
    "mips": {"dmem": (8, -99, 99)},
}

#: the mini-language kernel: a leaky energy detector with a clamp.
LEGACY_SOURCE = """
// Leaky energy detector in the mini-language.
module energy {
    in  int<32> x, bias;
    out int<32> level;

    thread main {
        int e = 0;
        @latency(1, 8)
        do {
            int sq = x * x;
            e = e + (sq >> 4) - (e >> 3);
            if (e > 1 << 16) {
                e = 1 << 16;
            }
            level = e + bias;
        } while (x != 0);
    }
}
"""
LEGACY_SAMPLES = 24


def _source_text(fn) -> str:
    """A registered kernel's source, without its registering decorator."""
    lines = inspect.getsource(fn).splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("def "))
    return "\n".join(lines[start:]) + "\n"


def setup(seed: int, smoke: bool) -> dict:
    from repro.tech import artisan90
    from repro.workloads import PIPELINE_INPUTS, PIPELINE_REGISTRY, \
        PYFUNC_REGISTRY

    rng = random.Random(seed)
    vectors = 2 if smoke else VECTORS
    kernels = []
    for name in sorted(RANDOM_ARRAYS):
        workload = PYFUNC_REGISTRY[name]
        arrays = []
        for _ in range(vectors):
            words = {}
            for array, (n, lo, hi) in RANDOM_ARRAYS[name].items():
                depth = len(workload.arrays[array])
                words[array] = [rng.randint(lo, hi) for _ in range(n)] \
                    + [0] * (depth - n)
            arrays.append(words)
        kernels.append({"name": name, "text": _source_text(workload.fn),
                        "defaults": workload, "vectors": arrays})
    legacy = []
    for _ in range(vectors):
        legacy.append({
            "x": [rng.randint(1, 99) for _ in range(LEGACY_SAMPLES - 1)]
            + [0],
            "bias": [rng.randint(0, 9) for _ in range(LEGACY_SAMPLES)]})
    pipelines = []
    names = sorted(PIPELINE_REGISTRY)[:1] if smoke \
        else sorted(PIPELINE_REGISTRY)
    for name in names:
        default = PIPELINE_INPUTS[name]()
        streams = []
        for _ in range(vectors):
            streams.append({
                port: [rng.randint(min(values), max(values))
                       for _ in values]
                for port, values in default.items()})
        pipelines.append({"name": name,
                          "factory": PIPELINE_REGISTRY[name],
                          "vectors": streams})
    return {"library": artisan90(), "kernels": kernels,
            "legacy": legacy, "pipelines": pipelines}


def run(state: dict, rec: Recorder, deadline: Deadline, checks: Checks,
        fault: bool) -> dict:
    timer = UnitTimer()
    cycles, qor = {}, None
    while deadline.more():
        t_pass = time.perf_counter()
        totals = {"area": 0.0, "latency": 0}
        units = [(k["name"], _pyfront, k) for k in state["kernels"]]
        units.append(("energy", _legacy, None))
        units += [(p["name"], _pipeline, p) for p in state["pipelines"]]
        with rec.span(ROOT_SPAN, iteration=deadline.iterations):
            for name, check, item in units:
                with timer.timed(name) as out:
                    out.update(cycles=0, sim_s=0.0)
                    check(item, state, rec, checks, totals, out,
                          fault and deadline.iterations == 0)
                cycles[name] = out["cycles"]
        deadline.done(time.perf_counter() - t_pass)
        if qor is None:
            qor = (totals["area"], totals["latency"])
        else:
            checks.check(qor == (totals["area"], totals["latency"]),
                         "QoR differs between passes of one run")
    rate = sum(cycles.values()) / timer.total("sim_s")
    return {
        "wall": timer.total(), "latencies": list(timer.times().values()),
        "rate": rate,
        "named": {"wall_s": (timer.total(), "s"),
                  "passes": (deadline.iterations, "count"),
                  "sim_cycles_per_s": (rate, "1/s"),
                  "qor_area": (qor[0], "area"),
                  "qor_latency_cycles": (qor[1], "cycles")},
        "qor": qor,
    }


def _schedule_and_emit(region, state, rec, checks, totals, what):
    from repro.core import schedule_region
    from repro.rtl.verilog import generate_verilog, lint_verilog

    with rec.span("core.schedule", kernel=what) as attrs:
        schedule = schedule_region(region, state["library"], CLOCK_PS)
        attrs["passes"] = schedule.passes
    with rec.span("core.validate"):
        problems = schedule.validate()
    checks.check(not problems, f"{what}: validate() {problems[:3]}")
    with rec.span("rtl.emit") as attrs:
        text = generate_verilog(schedule)
        attrs["bytes"] = len(text)
        lint = lint_verilog(text)
    checks.check(not lint, f"{what}: lint {lint[:3]}")
    totals["area"] += schedule.area
    totals["latency"] += schedule.latency
    return schedule


def _pyfront(kernel, state, rec, checks, totals, out, fault):
    from repro.frontend import compile_source
    from repro.sim.machine import simulate_schedule
    from repro.workloads.pyfunc import PyfuncWorkload

    name = kernel["name"]
    with rec.span("frontend.compile", kernel=name) as attrs:
        units = compile_source(kernel["text"], filename=f"{name}.py")
        attrs["ops"] = sum(len(u.region.dfg) for u in units)
    if not checks.check(len(units) == 1, f"{name}: {len(units)} kernels"):
        return
    region = units[0].region
    schedule = _schedule_and_emit(region, state, rec, checks, totals, name)
    # the oracle: the very source text, executed by CPython
    namespace = {}
    exec(compile(kernel["text"], f"{name}.py", "exec"), namespace)
    default = kernel["defaults"]
    oracle = PyfuncWorkload(name=name, fn=namespace[default.fn.__name__],
                            arrays=default.arrays, scalars=default.scalars)
    depths = {n: d.depth for n, d in region.memories.items()}
    returns = bool(region.metadata.get("pyfront", {}).get("returns_value"))
    for i, arrays in enumerate(kernel["vectors"]):
        t0 = time.perf_counter()
        with rec.span("sim.machine", kernel=name) as attrs:
            sim = simulate_schedule(schedule, oracle.sim_inputs(),
                                    memory_init=oracle.memory_init(arrays))
            attrs["cycles"] = sim.cycles
        out["sim_s"] += time.perf_counter() - t0
        out["cycles"] += sim.cycles
        with rec.span("sim.oracle", kernel=name):
            want = oracle.oracle(arrays=arrays, depths=depths)
        got = sim.output("ret")[-1] if returns and sim.output("ret") \
            else None
        memories = dict(sim.memories)
        if fault and i == 0:
            got = (got or 0) + 1
        ok = got == want.value and all(
            memories.get(array) == words
            for array, words in want.memories.items())
        with rec.span("sim.compare", kernel=name) as attrs:
            attrs["mismatch"] = 0 if ok else 1
        checks.check(ok, f"{name}: vector {i} differs from CPython")


def _legacy(_item, state, rec, checks, totals, out, fault):
    from repro.frontend import compile_source
    from repro.sim.machine import simulate_schedule
    from repro.sim.reference import simulate_reference

    with rec.span("frontend.compile", kernel="energy") as attrs:
        units = compile_source(LEGACY_SOURCE, kind="legacy")
        attrs["ops"] = sum(len(u.region.dfg) for u in units)
    if not checks.check(len(units) == 1, f"energy: {len(units)} loops"):
        return
    region = units[0].region
    schedule = _schedule_and_emit(region, state, rec, checks, totals,
                                  "energy")
    for i, inputs in enumerate(state["legacy"]):
        t0 = time.perf_counter()
        with rec.span("sim.machine", kernel="energy") as attrs:
            sim = simulate_schedule(schedule, inputs,
                                    max_iterations=LEGACY_SAMPLES)
            attrs["cycles"] = sim.cycles
        out["sim_s"] += time.perf_counter() - t0
        out["cycles"] += sim.cycles
        with rec.span("sim.oracle", kernel="energy"):
            want = simulate_reference(region, inputs,
                                      max_iterations=LEGACY_SAMPLES)
        ok = sim.output("level") == want.output("level") \
            and sim.iterations == LEGACY_SAMPLES
        with rec.span("sim.compare", kernel="energy") as attrs:
            attrs["mismatch"] = 0 if ok else 1
        checks.check(ok, f"energy: vector {i} differs from the reference")


def _pipeline(pipe, state, rec, checks, totals, out, fault):
    from repro.dataflow import (
        compile_pipeline,
        simulate_pipeline_machine,
        simulate_pipeline_reference,
    )
    from repro.dataflow.rtl import generate_pipeline_verilog
    from repro.rtl.verilog import lint_verilog

    name = pipe["name"]
    with rec.span("dataflow.compose", pipeline=name):
        composed = compile_pipeline(pipe["factory"](), state["library"],
                                    clock_ps=CLOCK_PS)
    with rec.span("rtl.emit", pipeline=name) as attrs:
        text = generate_pipeline_verilog(composed)
        attrs["bytes"] = len(text)
        lint = lint_verilog(text)
    checks.check(not lint, f"{name}: lint {lint[:3]}")
    totals["area"] += composed.area
    totals["latency"] += composed.latency
    for i, inputs in enumerate(pipe["vectors"]):
        t0 = time.perf_counter()
        with rec.span("sim.machine", pipeline=name) as attrs:
            machine = simulate_pipeline_machine(composed, inputs)
            attrs["cycles"] = machine.cycles
            attrs["stalled_cycles"] = machine.stalled_cycles
        out["sim_s"] += time.perf_counter() - t0
        out["cycles"] += machine.cycles
        with rec.span("sim.oracle", pipeline=name):
            oracle = simulate_pipeline_reference(pipe["factory"](), inputs)
        ok = machine.outputs == oracle.outputs
        with rec.span("sim.compare", pipeline=name) as attrs:
            attrs["mismatch"] = 0 if ok else 1
        checks.check(ok, f"{name}: vector {i} differs from the token "
                         f"oracle")


def layers(view: LayerView, state: dict, result: dict) -> dict:
    compile_s = view.self_s("frontend.compile")
    ops = view.attr_sum("frontend.compile", "ops")
    return {
        "frontend.compile_s": compile_s,
        "frontend.ops": ops,
        "frontend.ops_per_s": ops / compile_s if compile_s else 0.0,
        "core.schedule_s": view.self_s("core.schedule"),
        "core.passes": view.attr_sum("core.schedule", "passes"),
        "core.validate_s": view.self_s("core.validate"),
        "timing.evaluates": view.counter("engine.evaluate",
                                         "core.schedule"),
        "timing.commits": view.counter("engine.commit", "core.schedule"),
        "sim.machine_s": view.self_s("sim.machine"),
        "sim.oracle_s": view.self_s("sim.oracle"),
        "sim.cycles": view.attr_sum("sim.machine", "cycles"),
        "sim.vectors": len(view.first("sim.machine")),
        "sim.mismatches": view.attr_sum("sim.compare", "mismatch"),
        "rtl.emit_s": view.self_s("rtl.emit"),
        "rtl.bytes": view.attr_sum("rtl.emit", "bytes"),
        "dataflow.compose_s": view.self_s("dataflow.compose"),
        "dataflow.stalled_cycles": view.attr_sum("sim.machine",
                                                 "stalled_cycles"),
        "qor.area": result["qor"][0],
        "qor.latency_cycles": result["qor"][1],
    }
