"""Persistent worker processes: reuse, retirement, isolation, identity.

A process-mode engine keeps one long-lived worker per supervisor
thread.  The contracts under test:

* sequential jobs reuse one worker (one pid, one store shard, one
  spawn) -- only a clean verdict keeps it;
* a SIGKILL, a timeout or a cancel of a running job retires the
  worker, and the next job runs on a fresh pid and succeeds;
* a worker that died while idle is replaced before the next dispatch,
  and SIGTERM ends a worker even when the server traps it;
* a deterministic ``job_error`` does not retire it;
* a reused worker carries nothing of the previous job into the next
  job's registry snapshot or trace;
* process-mode results are bit-equal to inline-mode results.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.obs.metrics import REGISTRY
from repro.service import JobEngine
from repro.service.jobs import CANCELLED, DONE, FAILED

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="needs POSIX signals")

#: a grid big enough that the worker is reliably mid-job when hit.
SLOW_SWEEP = {"workload": "adpcm",
              "clocks_ps": [900.0 + 7 * i for i in range(40)],
              "latencies": "12,16"}

FIR_SOURCE = '''\
def fir(x: int, k: int) -> int:
    acc = 0
    for i in range(4):
        acc = acc + x * k
    return acc
'''

#: one job of every kind, including a pyfront source.
MIXED = [
    ("schedule", {"workload": "fir"}),
    ("schedule", {"source": FIR_SOURCE, "clock_ps": 2000.0}),
    ("sweep", {"workload": "fir", "clocks_ps": "1600,2400",
               "latencies": "3,4"}),
    ("tune", {"workload": "fir", "objective": "area",
              "delay_ps": 9000.0, "strategy": "greedy",
              "clocks_ps": "1600,2400", "latencies": "3,4"}),
    ("stream", {"pipeline": "fir_decimate_stream"}),
]


def _engine(tmp_path, **kwargs) -> JobEngine:
    kwargs.setdefault("max_retries", 0)
    return JobEngine(workers=1, mode="process", job_timeout_s=120,
                     store_path=str(tmp_path / "s.jsonl"),
                     **kwargs).start()


def _run(engine, kind, params):
    final = engine.wait(engine.submit(kind, dict(params)).id, timeout=120)
    assert final is not None
    return final


def _pid(job) -> int:
    """The pid of the worker that ran a done job (from its trace)."""
    (pid,) = {span["pid"] for span in job.trace}
    return pid


def _shards(tmp_path):
    return sorted(tmp_path.glob("s.jsonl.*.shard"))


def _wait_for_pid(execution, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if execution.worker_pid is not None:
            return execution.worker_pid
        time.sleep(0.02)
    raise AssertionError("worker never started")


def test_sequential_jobs_share_one_worker_and_one_shard(tmp_path):
    engine = _engine(tmp_path)
    try:
        jobs = [_run(engine, "sweep",
                     {"workload": "fir", "latencies": "3,4",
                      "clocks_ps": [1500.0 + 50 * i]})
                for i in range(4)]
        assert all(job.state == DONE for job in jobs)
        pids = {_pid(job) for job in jobs}
        assert len(pids) == 1 and os.getpid() not in pids
        (shard,) = _shards(tmp_path)
        assert shard.name == f"s.jsonl.{pids.pop()}.shard"
        assert len(shard.read_text().splitlines()) == 8
        stats = engine.stats()
        assert stats["worker_spawns"] == 1
        assert REGISTRY.counters.get("service.worker_spawns", 0) >= 1
    finally:
        engine.stop()
    assert not _shards(tmp_path)  # stop() compacted after the exit


@pytest.mark.parametrize("fault", ["sigkill", "timeout", "cancel"])
def test_fault_retires_worker_and_next_job_runs_fresh(tmp_path, fault):
    engine = _engine(tmp_path)
    try:
        first = _run(engine, "schedule", {"workload": "fir"})
        assert first.state == DONE
        old_pid = _pid(first)
        if fault == "timeout":
            engine.job_timeout_s = 0.3
        job = engine.submit("sweep", dict(SLOW_SWEEP))
        execution = engine.queue._by_key[job.key]
        # the slow job runs on the reused worker
        assert _wait_for_pid(execution) == old_pid
        if fault == "sigkill":
            os.kill(old_pid, signal.SIGKILL)
        elif fault == "cancel":
            engine.cancel(job.id)
        final = engine.wait(job.id, timeout=60)
        assert final.state == (CANCELLED if fault == "cancel" else FAILED)
        engine.job_timeout_s = 120
        # the supervisor reaps the worker (a cancel answers first)
        deadline = time.monotonic() + 10.0
        while execution.worker_pid and time.monotonic() < deadline:
            time.sleep(0.02)
        assert execution.worker_pid is None

        after = _run(engine, "schedule", {"workload": "adpcm"})
        assert after.state == DONE
        assert _pid(after) != old_pid
        assert engine.stats()["worker_spawns"] == 2
    finally:
        engine.stop()


def _reaped(pid) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_terminate_ends_worker_despite_server_sigterm_handler(tmp_path):
    """``repro serve`` traps SIGTERM; its forked workers must not, or a
    cancel waits out the terminate grace period before the kill."""
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    try:
        engine = _engine(tmp_path)
        try:
            job = engine.submit("sweep", dict(SLOW_SWEEP))
            pid = _wait_for_pid(engine.queue._by_key[job.key])
            start = time.monotonic()
            engine.cancel(job.id)
            while not _reaped(pid) and time.monotonic() - start < 10.0:
                time.sleep(0.01)
            assert time.monotonic() - start < 1.5
        finally:
            engine.stop()
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_worker_dead_while_idle_is_replaced_before_dispatch(tmp_path):
    engine = _engine(tmp_path)
    try:
        first = _run(engine, "schedule", {"workload": "fir"})
        worker = engine._workers[0]
        os.kill(_pid(first), signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while worker.proc.is_alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        # no retry budget: the job must not be charged for the corpse
        after = _run(engine, "schedule", {"workload": "adpcm"})
        assert after.state == DONE and after.attempts == 1
        assert _pid(after) != _pid(first)
        stats = engine.stats()
        assert stats["worker_crashes"] == 0
        assert stats["worker_spawns"] == 2
    finally:
        engine.stop()


def test_job_error_keeps_the_worker(tmp_path):
    engine = _engine(tmp_path)
    try:
        first = _run(engine, "schedule", {"workload": "fir"})
        # passes submit-time validation, fails inside the worker
        bad = _run(engine, "tune", {"workload": "fir", "objective": "area",
                                    "delay_ps": -5.0,
                                    "clocks_ps": "1600",
                                    "latencies": "3"})
        assert bad.state == FAILED
        assert bad.error["reason"] == "bad_request"
        assert "invalid goal" in bad.error["message"]
        after = _run(engine, "schedule", {"workload": "adpcm"})
        assert after.state == DONE
        assert _pid(after) == _pid(first)
        stats = engine.stats()
        assert stats["worker_spawns"] == 1
        assert stats["worker_crashes"] == 0
    finally:
        engine.stop()


def _registry_snapshots(monkeypatch):
    """Record the per-job registry snapshots the supervisor merges."""
    seen = []
    merge = REGISTRY.merge

    def recording_merge(snap):
        seen.append(snap)
        merge(snap)

    monkeypatch.setattr(REGISTRY, "merge", recording_merge)
    return seen


def test_reused_worker_carries_nothing_between_jobs(tmp_path,
                                                    monkeypatch):
    second_kind, second_params = "stream", {"pipeline":
                                            "fir_decimate_stream"}
    snaps = _registry_snapshots(monkeypatch)
    engine = _engine(tmp_path / "reused")
    try:
        first = _run(engine, "sweep", {"workload": "fir",
                                       "clocks_ps": "1600,2400",
                                       "latencies": "3,4"})
        second = _run(engine, second_kind, second_params)
        assert _pid(first) == _pid(second)
    finally:
        engine.stop()
    _, reused = snaps[-2:]

    engine = _engine(tmp_path / "fresh")
    try:
        alone = _run(engine, second_kind, second_params)
    finally:
        engine.stop()
    fresh = snaps[-1]

    # the same counters as on a fresh worker: none of the sweep's
    assert reused["counters"] == fresh["counters"]
    assert not any(name.startswith("sweep.")
                   for name in reused["counters"])
    # the trace holds exactly this job's spans
    roots = [s for s in second.trace if s["name"] == "service.job"]
    assert [r["attrs"]["kind"] for r in roots] == [second_kind]
    assert sorted(s["name"] for s in second.trace) \
        == sorted(s["name"] for s in alone.trace)
    assert not any(s["name"].startswith("sweep.") for s in second.trace)


def test_process_results_bit_equal_to_inline(tmp_path):
    results = {}
    for mode in ("process", "inline"):
        engine = JobEngine(workers=1, mode=mode, job_timeout_s=120,
                           store_path=str(tmp_path / f"{mode}.jsonl"))
        with engine:
            finals = [_run(engine, kind, params) for kind, params in MIXED]
        assert [job.state for job in finals] == [DONE] * len(MIXED)
        results[mode] = [job.result for job in finals]
        if mode == "process":
            assert engine.stats()["worker_spawns"] == 1
    assert results["process"] == results["inline"]
