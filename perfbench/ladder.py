"""ladder: cold ``schedule_region`` over the Figure 9 reduced ladder.

Ten synthetic industrial designs of about 110 to 480 operations
(``industrial_suite(n_designs=10, max_ops=400)``) are scheduled cold at
1600 ps; each schedule is then validated, signed off by static timing
analysis and emitted as Verilog.  The scheduler core and the timing
engine do nearly all the work here; the sweep, store and service
layers do none.  The ladder is repeated for the length of the run and
each design's median repeat, in reference-host seconds, is its time
(see ``harness.UnitTimer``).

The population uses ``industrial_suite``'s default generator seed,
because the cost of a generated population swings by a quarter with
the generator seed (11.7 to 18.5 s for three seeds of the 1200-op
ladder on a 2-CPU host), far more than a regression bound.  It stops
well below the 1200-op top of the Figure 9 reduced ladder so that
every design repeats about ten times within one run.  The benchmark seed sets
the order in which the designs are scheduled; every design is
scheduled cold, so the work is the same for every seed.
"""

from __future__ import annotations

import random
import time

from harness import (Checks, Deadline, LayerView, Recorder, UnitTimer,
                     loglog_slope)

CLOCK_PS = 1600.0
#: the span enclosing one measured iteration (its first holds the counts).
ROOT_SPAN = "ladder.pass"


def setup(seed: int, smoke: bool) -> dict:
    from repro.tech import artisan90
    from repro.workloads.synthetic import industrial_suite

    library = artisan90()
    t0 = time.perf_counter()
    designs = _population(industrial_suite, smoke)
    build_s = time.perf_counter() - t0
    order = list(range(len(designs)))
    random.Random(seed).shuffle(order)
    return {"library": library, "designs": designs, "order": order,
            "smoke": smoke, "build_s": build_s,
            "suite": industrial_suite}


def _population(industrial_suite, smoke: bool):
    if smoke:
        return industrial_suite(n_designs=3, max_ops=250)
    return industrial_suite(n_designs=10, max_ops=400)


def run(state: dict, rec: Recorder, deadline: Deadline, checks: Checks,
        fault: bool) -> dict:
    from repro.core import schedule_region
    from repro.rtl.verilog import generate_verilog, lint_verilog
    from repro.timing.sta import verify_timing

    library = state["library"]
    timer, qor = UnitTimer(), None
    designs = state["designs"]
    ops_total = sum(len(region.dfg) for _, region in designs)
    while deadline.more():
        t_iter = time.perf_counter()
        if deadline.iterations:
            # every pass is cold: rebuild the regions outside the clock
            with rec.span("cdfg.build"):
                designs = _population(state["suite"], state["smoke"])
        area = latency = 0
        with rec.span(ROOT_SPAN, iteration=deadline.iterations):
            for idx in state["order"]:
                spec, region = designs[idx]
                with timer.timed(spec.name):
                    with rec.span("core.schedule", design=spec.name,
                                  ops=len(region.dfg)) as attrs:
                        schedule = schedule_region(region, library,
                                                   CLOCK_PS)
                        attrs["passes"] = schedule.passes
                    with rec.span("core.validate"):
                        problems = schedule.validate()
                    with rec.span("timing.signoff"):
                        report = verify_timing(schedule.netlist)
                    with rec.span("rtl.emit") as attrs:
                        text = generate_verilog(schedule)
                        attrs["bytes"] = len(text)
                    if fault and idx == state["order"][0]:
                        text = text.replace("endmodule", "", 1)
                    with rec.span("rtl.lint"):
                        lint = lint_verilog(text)
                checks.check(not problems,
                             f"{spec.name}: validate() {problems[:3]}")
                checks.check(report.met, f"{spec.name}: sign-off WNS "
                                         f"{report.wns_ps:.1f} ps")
                checks.check(not lint, f"{spec.name}: lint {lint[:3]}")
                area += schedule.area
                latency += schedule.latency
        deadline.done(time.perf_counter() - t_iter)
        if qor is None:
            qor = (area, latency)
        else:
            checks.check(qor == (area, latency),
                         "QoR differs between passes of one run")
    wall = timer.total()
    return {
        "wall": wall, "latencies": list(timer.times().values()),
        "rate": ops_total / wall,
        "named": {"wall_s": (wall, "s"), "passes": (deadline.iterations,
                                                    "count"),
                  "qor_area": (qor[0], "area"),
                  "qor_latency_cycles": (qor[1], "cycles")},
        "qor": qor,
    }


def layers(view: LayerView, state: dict, result: dict) -> dict:
    scheds = view.first("core.schedule")
    hits = view.counter("engine.commit_cache_hit", "core.schedule")
    misses = view.counter("engine.commit_cache_miss", "core.schedule")
    return {
        "cdfg.build_s": state["build_s"],
        "core.schedule_s": view.self_s("core.schedule"),
        "core.passes": sum(s["attrs"]["passes"] for s in scheds),
        "core.scaling_exponent": loglog_slope(
            [s["attrs"]["ops"] for s in scheds],
            [s["dur"] for s in scheds]),
        "core.validate_s": view.self_s("core.validate"),
        "timing.signoff_s": view.self_s("timing.signoff"),
        "timing.evaluates": view.counter("engine.evaluate",
                                         "core.schedule"),
        "timing.commits": view.counter("engine.commit", "core.schedule"),
        "timing.commit_cache_hits": hits,
        "timing.commit_cache_lookups": hits + misses,
        "rtl.emit_s": view.self_s("rtl.emit", "rtl.lint"),
        "rtl.bytes": view.attr_sum("rtl.emit", "bytes"),
        "qor.area": result["qor"][0],
        "qor.latency_cycles": result["qor"][1],
    }
