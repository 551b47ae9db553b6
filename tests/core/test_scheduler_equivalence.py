"""Optimized-vs-reference scheduler equivalence.

Every fast path the scheduler core grew -- fanin bitmasks, carried-over
mobility, memoized priority orders, the commit-outcome cache, counted
restraint logs, incremental candidate ordering -- is *decision-neutral
by construction*: it must reproduce the reference scheduler's output
bit for bit, not merely an equally good schedule.
This suite pins that contract on the paper examples, the synthetic
industrial population, and (via Hypothesis) random regions.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdfg import RegionBuilder
from repro.core import ScheduleError, SchedulerOptions, schedule_region
from repro.obs.trace import Tracer
from repro.tech import artisan90
from repro.workloads import WORKLOAD_REGISTRY
from repro.workloads.synthetic import industrial_suite

from tests.conftest import property_examples

LIB = artisan90()
CLOCK = 1600.0

#: fast paper workloads (the heavyweight ones are covered by the
#: benchmark suite's fingerprints; this must stay tier-1 quick).
PAPER_WORKLOADS = ("example1", "fir", "fft8", "idct8")

_SETTINGS = dict(max_examples=property_examples(10), deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def fingerprint(schedule):
    """Canonical bit-exact summary of every scheduling decision.

    Floats are rendered with ``repr`` so two schedules differing in the
    last ulp of an arrival do not fingerprint equal.
    """
    binds = []
    for uid in sorted(schedule.bindings):
        b = schedule.bindings[uid]
        binds.append((
            uid, b.state, b.inst.name if b.inst else None, b.cycles,
            repr(b.out_arrival_ps), repr(b.capture_ps),
        ))
    return {
        "passes": schedule.passes,
        "latency": schedule.latency,
        "actions": tuple(schedule.actions_taken),
        "speculated": tuple(sorted(schedule.speculated)),
        "windows": tuple((w.index, tuple(sorted(w.members)), w.anchor,
                          w.length) for w in schedule.scc_windows),
        "bindings": tuple(binds),
    }


def _schedule(region, **options):
    return schedule_region(region, LIB, CLOCK,
                           options=SchedulerOptions(**options))


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_fast_paths_bit_identical_on_paper_examples(name):
    reference = _schedule(WORKLOAD_REGISTRY[name](), fast_paths=False)
    optimized = _schedule(WORKLOAD_REGISTRY[name](), fast_paths=True)
    assert fingerprint(optimized) == fingerprint(reference)


def _industrial(idx: int):
    """A fresh copy of industrial design ``idx`` (suite is deterministic)."""
    spec, region = industrial_suite(n_designs=4, max_ops=300)[idx]
    return spec.name, region


def test_fast_paths_bit_identical_on_industrial_suite():
    """The synthetic fig9 population, sized for tier-1 runtime."""
    for idx in range(4):
        name, ref_region = _industrial(idx)
        reference = _schedule(ref_region, fast_paths=False)
        optimized = _schedule(_industrial(idx)[1], fast_paths=True)
        assert fingerprint(optimized) == fingerprint(reference), name


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_tracing_bit_identical_on_paper_examples(name):
    """Tracing observes, it never steers: a traced schedule must
    fingerprint-equal the untraced one, while actually recording the
    relaxation loop (the decision-neutrality half of the obs layer's
    contract; the overhead half lives in benchmarks)."""
    plain = _schedule(WORKLOAD_REGISTRY[name]())
    tracer = Tracer()
    traced = schedule_region(WORKLOAD_REGISTRY[name](), LIB, CLOCK,
                             tracer=tracer)
    assert fingerprint(traced) == fingerprint(plain)
    spans = tracer.export()
    assert spans and all(s["name"] == "scheduler.pass" for s in spans)
    # the last pass is the accepting one and records its decision
    assert spans[-1]["attrs"].get("success") is True


def _random_region(seed: int, n_ops: int):
    """A small random accumulator dataflow (deterministic per seed)."""
    rng = random.Random(seed)
    b = RegionBuilder(f"equiv{seed}", is_loop=True, max_latency=24)
    pool = [b.read(f"in{i}", 16) for i in range(2)]
    lv = b.loop_var("acc", b.const(rng.randrange(8), 16))
    pool.append(lv.value)
    for _ in range(n_ops):
        x = pool[rng.randrange(len(pool))]
        y = pool[rng.randrange(len(pool))]
        op = rng.choice(["add", "sub", "mul", "xor", "mux"])
        if op == "add":
            pool.append(b.add(x, y))
        elif op == "sub":
            pool.append(b.sub(x, y))
        elif op == "mul":
            pool.append(b.mul(x, y, width=16))
        elif op == "xor":
            pool.append(b.xor(x, y))
        else:
            pool.append(b.mux(b.gt(x, y), x, y))
    lv.set_next(b.add(lv.value, pool[-1], width=16))
    b.write("out", pool[-1])
    b.set_trip_count(5)
    return b.build()


@given(seed=st.integers(0, 10_000), n_ops=st.integers(3, 14))
@settings(**_SETTINGS)
def test_fast_paths_bit_identical_on_random_regions(seed, n_ops):
    try:
        reference = _schedule(_random_region(seed, n_ops),
                              fast_paths=False)
    except ScheduleError:
        # overconstrained either way; the optimized path must agree
        with pytest.raises(ScheduleError):
            _schedule(_random_region(seed, n_ops), fast_paths=True)
        return
    optimized = _schedule(_random_region(seed, n_ops), fast_paths=True)
    assert fingerprint(optimized) == fingerprint(reference)
