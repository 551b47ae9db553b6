"""grid: a cold and a warm Figure-10-style sweep plus goal-directed tuning.

One iteration runs, on the ``jpeg_dct`` CHStone kernel:

* cold: ``run_sweep(jobs=2)`` over 2 microarchitectures x 3 clocks with
  a fresh ``FlowCache``, then twelve ``tune`` runs (four strategies x
  three objectives) on a fresh on-disk ``ResultStore`` (the tunes share
  the sweep's cache, so their evaluations write the store without
  synthesizing again);
* warm: the same sweep over the cold phase's cache, then the twelve
  tunes again over the store reopened from disk (zero fresh
  evaluations expected).

The cold phase writes the caches and the warm phase reads them, so a
change that helps one side and hurts the other shows.  The iteration
repeats for the length of the run and each call's median repeat, in
reference-host seconds, is its time (see ``harness.UnitTimer``).
Every strategy runs with every objective (area, delay, power), so each
seed does the same work.

The grid is NP48 and P48:24 (two of the microarchitectures
``benchmarks/test_sweep_scaling.py`` pins) at 1600, 2100 and 2800 ps,
with infeasible corners that exhaust the relaxation budget.  Two
microarchitectures make one worker batch each, so the two workers
always split the work the same way: with five, the split followed
whichever worker freed first and the cold sweep's time swung by a
fifth from run to run.  The clock axis is fixed: the cost of a
jpeg_dct grid swings by up to 2x when its clocks move by 2%, far more
than a regression bound.  The benchmark seed draws the order the
twelve tunes run in.
"""

from __future__ import annotations

import os
import random
import time

from harness import Checks, Deadline, LayerView, Recorder, UnitTimer, median

STRATEGIES = ("exhaustive", "bisect", "greedy", "halving")
OBJECTIVES = ("area", "delay", "power")
CLOCKS_PS = (1600.0, 2100.0, 2800.0)
JOBS = 2
#: the (strategy, objective) tunes whose winner a point of the grid's
#: Pareto front dominates today, a defect of the program: feasibility
#: is not monotone in the clock here (NP48 and P48:24 are infeasible at
#: 2100 ps but NP48 is feasible at 2800 ps), which the strategies'
#: pruning assumes (perfbench/README.md, "Findings").  Their dominated
#: winners are counted as ``dominated_winners``; a dominated winner of
#: any other tune fails the run.
KNOWN_DOMINATED = frozenset({("bisect", "area"), ("greedy", "area"),
                             ("halving", "area"), ("bisect", "delay")})
#: the span enclosing one measured iteration (its first holds the counts).
ROOT_SPAN = "grid.cycle"


def setup(seed: int, smoke: bool) -> dict:
    from repro.dse import DesignSpace
    from repro.explore.microarch import Microarch
    from repro.tech import artisan90
    from repro.workloads import PYFUNC_REGISTRY

    micros = (Microarch("NP48", 48), Microarch("P48:24", 48, ii=24))
    clocks = CLOCKS_PS
    if smoke:
        micros, clocks = (micros[0],), (1600.0, 2800.0)
    plan = [(name, objective) for name in STRATEGIES
            for objective in OBJECTIVES]
    random.Random(seed).shuffle(plan)
    factory = PYFUNC_REGISTRY["jpeg_dct"].build
    factory()  # compile once: the frontend's import and warm-up
    return {"library": artisan90(), "factory": factory,
            "micros": micros, "clocks": clocks,
            "space": DesignSpace(micros, clocks), "plan": plan}


def _render(result):
    return [repr(p) for p in result.points] + \
        [repr(q) for q in result.infeasible]


def run(state: dict, rec: Recorder, deadline: Deadline, checks: Checks,
        fault: bool) -> dict:
    from repro.dse import Goal, ResultStore, tune
    from repro.explore.pareto import dominates, pareto_front
    from repro.flow.cache import FlowCache
    from repro.flow.executor import run_sweep

    lib, factory = state["library"], state["factory"]
    micros, clocks, space = state["micros"], state["clocks"], state["space"]
    timer = UnitTimer()
    reference = None
    summary = {}
    while deadline.more():
        t_iter = time.perf_counter()
        store_path = os.path.join(state["tmp"],
                                  f"store-{deadline.iterations}.jsonl")
        with rec.span(ROOT_SPAN, iteration=deadline.iterations):
            cache = FlowCache()
            with timer.timed("sweep/cold"), \
                    rec.span("flow.sweep", phase="cold") as attrs:
                cold = run_sweep(factory, lib, micros, clocks, jobs=JOBS,
                                 cache=cache)
                attrs["profile"] = _profile(cold)
            with rec.span("dse.store_open", phase="cold"):
                store = ResultStore(store_path)
            reports = _tunes(rec, state, tune, Goal, cache, store,
                             "cold", timer)
            with timer.timed("sweep/warm"), \
                    rec.span("flow.sweep", phase="warm") as attrs:
                warm = run_sweep(factory, lib, micros, clocks, jobs=JOBS,
                                 cache=cache)
                attrs["profile"] = _profile(warm)
                attrs["cache_hits"] = warm.cache_hits
                attrs["cache_lookups"] = warm.cache_hits + warm.cache_misses
            with rec.span("dse.store_open", phase="warm"):
                reopened = ResultStore(store_path)
            warm_reports = _tunes(rec, state, tune, Goal, FlowCache(),
                                  reopened, "warm", timer)
        deadline.done(time.perf_counter() - t_iter)

        render = _render(cold)
        if fault:
            render = render[1:] + render[:1]
        checks.check(render == _render(warm),
                     "cold and warm sweeps render differently")
        if reference is None:
            reference = render
        checks.check(render == reference,
                     "sweep render differs between iterations")
        points = cold.points
        dominated = 0
        for (strategy, objective), cold_rep, warm_rep in zip(
                state["plan"], reports, warm_reports):
            goal = Goal.build(objective=objective)
            metrics = ("delay_ps", "area", "power_mw") \
                if goal.objective.metric == "power_mw" \
                else ("delay_ps", "area")
            front = pareto_front(points, z="power_mw"
                                 if len(metrics) == 3 else None)
            winner = cold_rep.winner
            where = f"tune {strategy}/{objective}"
            if not checks.check(winner is not None and goal.satisfied(
                    winner), f"{where}: no goal-satisfying winner"):
                continue
            undominated = not any(dominates(q, winner, metrics)
                                  for q in front)
            if strategy == "exhaustive":
                checks.check(undominated and goal.score(winner)
                             == goal.score(goal.best(points)),
                             f"{where}: winner is not the grid optimum")
            elif (strategy, objective) in KNOWN_DOMINATED:
                dominated += not undominated
            else:
                checks.check(undominated, f"{where}: winner is dominated "
                                          f"by the grid's Pareto front")
            checks.check(warm_rep.winner == winner,
                         f"{where}: warm winner differs")
            checks.check(warm_rep.fresh_evaluations == 0,
                         f"{where}: warm tune synthesized "
                         f"{warm_rep.fresh_evaluations} points")
        summary = {
            "feasible": len(points),
            "area": sum(p.area for p in points),
            "latency": sum(p.latency for p in points),
            "dominated": dominated,
        }
    times = timer.times()
    points = len(micros) * len(clocks)
    cold_rate = points / times["sweep/cold"]
    return {
        "wall": timer.total(), "latencies": list(times.values()),
        "rate": cold_rate,
        "named": {"wall_s": (timer.total(), "s"),
                  "cycles": (deadline.iterations, "count"),
                  "points_per_s": (cold_rate, "1/s"),
                  "warm_points_per_s": (points / times["sweep/warm"],
                                        "1/s"),
                  "feasible_points": (summary.get("feasible", 0),
                                      "count"),
                  "dominated_winners": (summary.get("dominated", 0),
                                        "count")},
        "summary": summary,
    }


def _profile(result) -> dict:
    profile = result.profile
    return {"parent_served": profile.get("parent_served", 0),
            "worker_utilization": profile.get("worker_utilization", 0.0)}


def _tunes(rec, state, tune, Goal, cache, store, phase, timer):
    reports = []
    for strategy, objective in state["plan"]:
        with timer.timed(f"tune/{strategy}/{objective}/{phase}"), \
                rec.span("dse.tune", phase=phase,
                         strategy=strategy) as attrs:
            report = tune(state["factory"], state["library"],
                          Goal.build(objective=objective),
                          space=state["space"], strategy=strategy,
                          cache=cache, store=store, jobs=JOBS)
            attrs["fresh_evaluations"] = report.fresh_evaluations
            attrs["store_hits"] = report.store_hits
        reports.append(report)
    return reports


def layers(view: LayerView, state: dict, result: dict) -> dict:
    cold = view.first("flow.sweep", phase="cold")
    warm = view.first("flow.sweep", phase="warm")

    def cold_counter(key):
        return sum(s["attrs"].get("counters", {}).get(key, 0)
                   for s in cold)

    tunes = view.first("dse.tune")
    accepts = cold_counter("scheduler.ffwd")
    rejects = cold_counter("scheduler.ffwd_reject")
    hits = cold_counter("engine.commit_cache_hit")
    misses = cold_counter("engine.commit_cache_miss")
    summary = result["summary"]
    return {
        "core.passes": cold_counter("pass.count"),
        "core.ffwd_passes": cold_counter("scheduler.ffwd_passes"),
        "core.ffwd_accepts": accepts,
        "core.ffwd_attempts": accepts + rejects,
        "timing.evaluates": cold_counter("engine.evaluate"),
        "timing.commits": cold_counter("engine.commit"),
        "timing.commit_cache_hits": hits,
        "timing.commit_cache_lookups": hits + misses,
        "flow.sweep_s": view.self_s("flow.sweep", phase="cold"),
        "flow.warm_sweep_s": view.self_s("flow.sweep", phase="warm"),
        "flow.variant_builds": cold_counter("sweep.variant_builds"),
        "flow.pickle_bytes": cold_counter("sweep.pickle_bytes"),
        "flow.worker_utilization": median(
            [s["attrs"]["profile"]["worker_utilization"] for s in cold]),
        "flow.parent_served": sum(s["attrs"]["profile"]["parent_served"]
                                  for s in warm),
        "flow.cache_hits": sum(s["attrs"]["cache_hits"] for s in warm),
        "flow.cache_lookups": sum(s["attrs"]["cache_lookups"]
                                  for s in warm),
        "dse.tune_s": view.self_s("dse.tune"),
        "dse.fresh_evaluations": sum(s["attrs"]["fresh_evaluations"]
                                     for s in tunes),
        "dse.store_hits": sum(s["attrs"]["store_hits"] for s in tunes),
        "dse.store_open_s": view.self_s("dse.store_open"),
        "dse.dominated_winners": summary.get("dominated", 0),
        "qor.feasible_points": summary.get("feasible", 0),
        "qor.area": summary.get("area", 0.0),
        "qor.latency_cycles": summary.get("latency", 0),
    }
