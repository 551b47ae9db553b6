"""service: a closed loop of 2 clients against ``python -m repro serve``.

The server runs in its own process with 2 worker processes and an
on-disk result store.  Two client threads each send their next job
only after the previous one has finished (closed loop, 2 clients), for
the length of the run.  Jobs come in rounds of 17 drawn from the seed,
in the kind shares of the repository's live-service smoke mix
(``tools/service_smoke.py``: 5 schedule, 5 sweep, 4 tune and 1 stream
job plus a duplicated sweep), without its 3 cancels, since every job
here must end ``done``:

* 5 ``schedule`` jobs: 3 on registry kernels at seeded clocks and 2
  pyfront source submissions, a fresh kernel and one that only
  reformats an earlier kernel (structurally equal, so deduplicated);
* 6 ``sweep`` jobs, one overlapping points an earlier sweep stored;
* 4 ``tune`` jobs and 1 ``stream`` job;
* 1 exact duplicate of an earlier job (of any kind).

The kind shares and the duplicate share are the smoke mix's; the split
of schedule jobs into registry kernels and sources and the overlapping
sweep are this benchmark's own choice, made so that the mix covers the
frontend and store paths the smoke mix does not.

Jobs are small, so fork, IPC, HTTP, dedup and store I/O dominate and
the scheduler does little.  Job times are scaled to reference-host
seconds by the calibration runs made before and after their round,
while no job is in flight (see ``harness.UnitTimer``): the next round
opens only when the last job of the previous one has finished.

The parameter spaces are wide (clocks on a 10 or 50 ps grid), so fresh
jobs stay fresh all run long and the share
of deduplicated jobs is the mix's own, not a function of how many jobs
a run gets through; with a narrow space a fast run would drift into
serving mostly duplicates.  Every parameter the mix draws from is one
on which the job succeeds (``selftest.py --catalogue`` runs them all).
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

from harness import (Checks, Deadline, LayerView, Recorder, beyond,
                     calibration_s, median, percentile, reference_s)

WORKERS = 2
CLIENTS = 2
POLL_S = 0.01
JOB_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0

SCHEDULE_WORKLOADS = ("conv3x3", "fft8", "fft_stage", "fir", "idct2d",
                      "idct8", "matmul", "matmul_mem", "sobel",
                      "synthetic")
SCHEDULE_CLOCKS = tuple(float(c) for c in range(1000, 3001, 10))
SCHEDULE_IIS = (None, 1, 2)
SWEEP_LATENCIES = {"fir": "3,4", "idct8": "4,6"}
SWEEP_CLOCKS = tuple(float(c) for c in range(1500, 3001, 50))
STRATEGIES = ("exhaustive", "bisect", "greedy", "halving")
OBJECTIVES = ("area", "delay", "power")
PIPELINES = ("fir_decimate_stream", "matmul_relu_stream",
             "sobel_threshold_stream")
STREAM_CLOCKS = tuple(float(c) for c in range(1200, 2401, 10))
SAMPLE_CHECKS = 4
#: exact duplicates per round of 16 original jobs.
DUPLICATES = 1
#: calibration runs between two rounds, while no job is in flight.
ROUND_CALIB = 5
#: the span enclosing one measured iteration (its first holds the counts).
ROOT_SPAN = "service.job"

KERNEL = '''def {name}(x: "i32[8]", out: "i32[8]") -> int:
    acc = {seed}
    for i in range(8):
        v = x[i] * {a} + {b}
        if v > {c}:
            v = v - {d}
        acc = acc + (v >> {s})
        out[i] = acc
    return acc
'''

#: the same kernel, only reformatted: comments, blank lines, spacing.
KERNEL_REFORMATTED = '''# resubmitted with cosmetic edits only

def {name}(x: "i32[8]",  out: "i32[8]") -> int:
    # running sum of clipped, scaled samples
    acc = {seed}

    for i in range( 8 ):
        v = x[i]*{a} + {b}   # scale
        if v > {c}:
            v = v - {d}
        acc = acc + ( v >> {s} )
        out[i] = acc
    return acc
'''


class JobMix:
    """The seeded job stream, round by round.

    Kernels, pipelines, strategies and objectives are dealt from
    shuffled decks rather than drawn independently: every one comes up
    equally often, so the seed orders them without changing how much
    work a run holds (a registry kernel's schedule job costs from 3 ms
    to 0.3 s, and independent draws moved the mean job latency by
    several percent from seed to seed).
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.history = []        # every original job so far
        self.sweeps = []         # (workload, clocks) of earlier sweeps
        self.kernels = []        # constants of earlier pyfront kernels
        self.decks = {}          # what is left of each deck
        self.rounds = 0

    def _deal(self, name: str, items):
        deck = self.decks.get(name)
        if not deck:
            deck = self.decks[name] = list(items)
            self.rng.shuffle(deck)
        return deck.pop()

    def _schedule(self):
        rng = self.rng
        params = {"workload": self._deal("schedule", SCHEDULE_WORKLOADS),
                  "clock_ps": rng.choice(SCHEDULE_CLOCKS)}
        ii = rng.choice(SCHEDULE_IIS)
        if ii is not None:
            params["ii"] = ii
        return {"kind": "schedule", "params": params}

    def _sweep(self, overlap: bool):
        rng = self.rng
        if overlap and self.sweeps:
            workload, old = rng.choice(self.sweeps)
            fresh = [c for c in SWEEP_CLOCKS if c not in old]
            clocks = sorted({rng.choice(old), rng.choice(fresh or old)})
        else:
            workload = self._deal("sweep", sorted(SWEEP_LATENCIES))
            clocks = sorted(rng.sample(SWEEP_CLOCKS, 2))
        self.sweeps.append((workload, clocks))
        return {"kind": "sweep", "params": {
            "workload": workload, "clocks_ps": clocks,
            "latencies": SWEEP_LATENCIES[workload]}}

    def _tune(self):
        rng = self.rng
        workload = self._deal("tune", sorted(SWEEP_LATENCIES))
        return {"kind": "tune", "params": {
            "workload": workload,
            "clocks_ps": sorted(rng.sample(SWEEP_CLOCKS, 3)),
            "latencies": SWEEP_LATENCIES[workload],
            "strategy": self._deal("strategy", STRATEGIES),
            "objective": self._deal("objective", OBJECTIVES)}}

    def _stream(self):
        return {"kind": "stream", "params": {
            "pipeline": self._deal("stream", PIPELINES),
            "clock_ps": self.rng.choice(STREAM_CLOCKS)}}

    def _source(self, reformat: bool):
        rng = self.rng
        if reformat and self.kernels:
            consts = rng.choice(self.kernels[-16:])
            text = KERNEL_REFORMATTED.format(**consts)
        else:
            consts = {"name": f"k{len(self.kernels)}",
                      "seed": rng.randint(0, 9), "a": rng.randint(2, 9),
                      "b": rng.randint(0, 99), "c": rng.randint(50, 500),
                      "d": rng.randint(1, 40), "s": rng.randint(0, 3)}
            self.kernels.append(consts)
            text = KERNEL.format(**consts)
        return {"kind": "schedule", "params": {
            "source": text, "clock_ps": rng.choice(SCHEDULE_CLOCKS)},
            "reformatted": reformat}

    def next_round(self) -> list:
        """17 jobs in the shares of ``tools/service_smoke.py``'s mix
        without its cancels: 5 schedule (2 of them pyfront sources), 6
        sweep (1 overlapping stored points), 4 tune and 1 stream jobs,
        and 1 exact duplicate, which comes after its original."""
        rng = self.rng
        jobs = [self._schedule() for _ in range(3)]
        jobs += [self._source(False), self._source(True)]
        jobs += [self._sweep(False) for _ in range(5)]
        jobs.append(self._sweep(True))
        jobs += [self._tune() for _ in range(4)]
        jobs.append(self._stream())
        rng.shuffle(jobs)
        for job in jobs:
            job["round"] = self.rounds
        pool = self.history[-64:] + jobs
        self.history.extend(jobs)
        for _ in range(DUPLICATES):
            original = rng.choice(pool)
            dup = {"kind": original["kind"],
                   "params": dict(original["params"]),
                   "round": self.rounds, "duplicate_of": original}
            lo = jobs.index(original) + 1 if original in jobs else 0
            jobs.insert(rng.randint(lo, len(jobs)), dup)
        self.rounds += 1
        return jobs


def catalogue():
    """Every distinct (kind, params) the mix can draw -- for the pyfront
    kernels, the extremes of their constants: the jobs that must all
    succeed (``selftest.py --catalogue`` runs them in-process)."""
    for workload in SCHEDULE_WORKLOADS:
        for clock in SCHEDULE_CLOCKS:
            for ii in SCHEDULE_IIS:
                params = {"workload": workload, "clock_ps": clock}
                if ii is not None:
                    params["ii"] = ii
                yield "schedule", params
    # a sweep or tune succeeds when one of its points is feasible; every
    # point is, so single-clock sweeps cover every pair and triple
    for workload, latencies in SWEEP_LATENCIES.items():
        for clock in SWEEP_CLOCKS:
            yield "sweep", {"workload": workload, "clocks_ps": [clock],
                            "latencies": latencies}
        for at in (0, len(SWEEP_CLOCKS) // 2, len(SWEEP_CLOCKS) - 3):
            for strategy in STRATEGIES:
                for objective in OBJECTIVES:
                    yield "tune", {"workload": workload,
                                   "clocks_ps": list(SWEEP_CLOCKS[at:at + 3]),
                                   "latencies": latencies,
                                   "strategy": strategy,
                                   "objective": objective}
    for pipeline in PIPELINES:
        for clock in STREAM_CLOCKS:
            yield "stream", {"pipeline": pipeline, "clock_ps": clock}
    for low in (True, False):
        consts = {"name": "k0", "seed": 0 if low else 9,
                  "a": 2 if low else 9, "b": 0 if low else 99,
                  "c": 50 if low else 500, "d": 1 if low else 40,
                  "s": 0 if low else 3}
        for template in (KERNEL, KERNEL_REFORMATTED):
            for clock in (SCHEDULE_CLOCKS[0], SCHEDULE_CLOCKS[-1]):
                yield "schedule", {"source": template.format(**consts),
                                   "clock_ps": clock}


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve`` in its own process."""

    def __init__(self, root: str, store: str) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--store", store, "--json"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        self.url = None

    def wait_ready(self) -> float:
        """Block until ``/healthz`` answers; returns the boot time."""
        from repro.service.client import ServiceClient, ServiceError

        deadline = self.t0 + BOOT_TIMEOUT_S
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BOOT_TIMEOUT_S)
        if not ready:
            raise RuntimeError("server printed no address")
        line = self.proc.stdout.readline()
        self.url = json.loads(line)["url"]
        client = ServiceClient(self.url, timeout=5.0)
        while True:
            try:
                if client.healthz().get("ok"):
                    return time.perf_counter() - self.t0
            except (OSError, ServiceError):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def boot(state: dict, tag: str) -> Server:
    server = Server(state["root"], os.path.join(state["tmp"],
                                                f"store-{tag}.jsonl"))
    state["servers"].append(server)
    server.boot_s = server.wait_ready()
    return server


def setup(seed: int, smoke: bool) -> dict:
    import repro.service.client  # noqa: F401 - the client side imports

    return {"seed": seed, "smoke": smoke, "servers": []}


def start(state: dict) -> float:
    """Boot the server the run measures against; returns its boot time."""
    state["server"] = boot(state, "run")
    return state["server"].boot_s


def setup_again(state: dict, i: int) -> float:
    """One more boot-to-healthz sample, on a server stopped at once."""
    server = boot(state, f"probe{i}")
    server.stop()
    return server.boot_s


def stop(state: dict) -> None:
    for server in state["servers"]:
        server.stop()


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
def run(state: dict, rec: Recorder, deadline: Deadline, checks: Checks,
        fault: bool) -> dict:
    from repro.service.client import ServiceClient

    url = state["server"].url
    mix = JobMix(state["seed"])
    cond = threading.Condition()
    samples = []
    rounds = {}
    queue = []
    in_flight = [0]
    #: calibration runs taken before each round, while no job is in
    #: flight; round r lies between edges r and r + 1
    edges = []
    before = ServiceClient(url).stats()
    t_start = time.perf_counter()

    def next_job():
        with cond:
            # rounds are separated by a barrier: the next one opens
            # once no job is in flight, so its calibration measures the
            # host and not the server's own load
            while not queue and in_flight[0]:
                cond.wait()
            if deadline.remaining() <= 0:
                return None
            if not queue:
                edges.append(_calibrations())
                queue.extend(mix.next_round())
                rounds[queue[0]["round"]] = {
                    "start": time.perf_counter(), "left": 0, "end": None}
            job = queue.pop(0)
            rounds[job["round"]]["left"] += 1
            in_flight[0] += 1
        return job

    def finish(job, sample):
        with cond:
            samples.append(sample)
            info = rounds[job["round"]]
            info["left"] -= 1
            info["end"] = time.perf_counter()
            in_flight[0] -= 1
            cond.notify_all()

    def client_loop():
        client = ServiceClient(url, timeout=JOB_TIMEOUT_S)
        while True:
            job = next_job()
            if job is None:
                return
            finish(job, _one_job(client, rec, job))

    threads = [threading.Thread(target=client_loop, name=f"client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    t_end = max(s["t_done"] for s in samples)
    edges.append(_calibrations())
    after = ServiceClient(url).stats()
    deadline.done(t_end - t_start)

    _check(samples, checks, state, fault)
    walls = [(r, info["end"] - info["start"])
             for r, info in rounds.items()
             if info["left"] == 0 and r < mix.rounds - 1]
    if not walls:  # a run shorter than two rounds: what it ran
        walls = [(r, info["end"] - info["start"])
                 for r, info in rounds.items() if info["end"] is not None]
    # reference-host seconds: each job and round scaled by the median of
    # the calibrations on both sides of its round (see harness.UnitTimer
    # for why); the rate is the closed loop's, CLIENTS over the mean job
    # latency (Little's law), taken round by round and the median of
    # the rounds reported, so a slow stretch the calibrations miss moves
    # only the rounds it covers
    calib = [statistics.median(edges[r] + edges[r + 1])
             for r in range(len(edges) - 1)]
    latencies = [reference_s(_served(s), calib[s["job"]["round"]])
                 for s in samples]
    per_round = {}
    for sample, latency in zip(samples, latencies):
        per_round.setdefault(sample["job"]["round"], []).append(latency)
    jobs_per_s = median([CLIENTS / statistics.mean(per_round[r])
                         for r, _w in walls])
    walls = [reference_s(w, calib[r]) for r, w in walls]
    p95 = percentile(latencies, 95)
    return {
        "wall": median(walls), "latencies": latencies, "rate": jobs_per_s,
        "named": {"job_latency_p50_s": (median(latencies), "s"),
                  "job_latency_p95_s": (p95, "s"),
                  "jobs_per_s": (jobs_per_s, "1/s"),
                  "latency_samples": (len(latencies), "count"),
                  "samples_beyond_p95": (beyond(latencies, p95),
                                         "count")},
        "samples": samples, "stats": (before, after),
    }


def _calibrations() -> list:
    return [calibration_s() for _ in range(ROUND_CALIB)]


def _served(sample) -> float:
    """A job's latency as the service delivers it: the submit round
    trip plus submission to finish on the server's clock.  The client's
    poll interval adds up to ``POLL_S`` on top (``service.poll_delay_s``)
    and would quantize the percentiles."""
    status = sample["status"]
    if "finished_at" not in status:
        return sample["latency"]
    return sample["submit_rtt"] + status["finished_at"] \
        - status["submitted_at"]


def _one_job(client, rec, job) -> dict:
    t0 = time.perf_counter()
    with rec.span(ROOT_SPAN, kind=job["kind"]):
        with rec.span("service.submit"):
            accepted = client.submit(job["kind"], **job["params"])
        t_sub = time.perf_counter()
        status = accepted
        with rec.span("service.poll"):
            while status["state"] not in ("done", "failed", "cancelled"):
                if time.perf_counter() - t0 > JOB_TIMEOUT_S:
                    break
                time.sleep(POLL_S)
                status = client.status(accepted["id"])
        t_done = time.perf_counter()
        with rec.span("service.result"):
            result = client.result(accepted["id"])["result"] \
                if status["state"] == "done" else None
    return {"job": job, "state": status["state"],
            "deduplicated": accepted.get("deduplicated", False),
            "latency": t_done - t0, "submit_rtt": t_sub - t0,
            "t_done": t_done, "status": status, "result": result}


def _normalized(kind: str, result):
    """A job result without what depends on the store's contents rather
    than on the job: where each point came from (store or synthesis),
    and the order of the evaluation log, in which store hits come
    before synthesized points.  The decisions themselves stay."""
    if kind != "tune" or result is None:
        return result
    out = {k: v for k, v in result.items()
           if k not in ("fresh_evaluations", "store_hits")}
    out["trace"] = sorted(
        ({k: v for k, v in entry.items() if k != "source"}
         for entry in result.get("trace", [])),
        key=lambda entry: json.dumps(entry, sort_keys=True))
    return out


def _check(samples, checks, state, fault):
    from repro.service.execution import execute_job, normalize_params

    by_job = {id(s["job"]): s for s in samples}
    for sample in samples:
        job = sample["job"]
        checks.check(sample["state"] == "done",
                     f"{job['kind']} job ended {sample['state']}: "
                     f"{sample['status'].get('error')}")
        original = by_job.get(id(job.get("duplicate_of")))
        if original is not None:
            checks.check(sample["result"] == original["result"],
                         f"duplicate {job['kind']} job returned a "
                         f"different result")
    # a seeded sample, re-run in-process outside the timed phase
    rng = random.Random(state["seed"])
    originals = [s for s in samples if "duplicate_of" not in s["job"]
                 and s["state"] == "done"]
    picked = rng.sample(originals, min(SAMPLE_CHECKS, len(originals)))
    for i, sample in enumerate(picked):
        job = sample["job"]
        ok, result, _ = execute_job(
            job["kind"], normalize_params(job["kind"], job["params"]))
        served = sample["result"]
        if fault and i == 0:
            served = {"tampered": True}
        checks.check(ok and _normalized(job["kind"], result)
                     == _normalized(job["kind"], served),
                     f"{job['kind']} job differs from in-process "
                     f"execute_job")


def layers(view: LayerView, state: dict, result: dict) -> dict:
    samples = result["samples"]
    before, after = result["stats"]

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    def server_times(sample):
        status = sample["status"]
        sub = status.get("submitted_at")
        start = status.get("started_at", sub)
        end = status.get("finished_at", start)
        return sub, start, end

    queue_waits, poll_delays = [], []
    runs = {}
    for sample in samples:
        sub, start, end = server_times(sample)
        if sub is None:
            continue
        queue_waits.append(start - sub)
        poll_delays.append(sample["latency"] - (end - sub))
        if not sample["deduplicated"]:
            runs.setdefault(sample["job"]["kind"], []).append(end - start)
    store_hits = delta("store_hits")
    out = {
        "service.jobs": len(samples),
        "service.submit_rtt_s": median([s["submit_rtt"] for s in samples]),
        "service.poll_delay_s": median(poll_delays),
        "service.queue_wait_s": median(queue_waits),
        "service.queue_wait_p95_s": percentile(queue_waits, 95),
        "service.submitted": delta("submitted"),
        "service.dedup_hits": delta("dedup_hits"),
        "service.store_hits": store_hits,
        "service.store_lookups": store_hits + delta("store_misses"),
        "service.retries": delta("retries"),
        "service.worker_crashes": delta("worker_crashes"),
        "service.timeouts": delta("timeouts"),
        "service.client_s": view.self_s("service.job", "service.submit",
                                        "service.poll", "service.result"),
        "service.latency_p95_s": result["named"]["job_latency_p95_s"][0],
        "service.latency_samples": result["named"]["latency_samples"][0],
        "service.samples_beyond_p95":
            result["named"]["samples_beyond_p95"][0],
    }
    for kind in ("schedule", "sweep", "tune", "stream"):
        out[f"service.run_s.{kind}"] = median(runs.get(kind, []))
    return out
