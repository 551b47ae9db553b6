"""The benchmark's metric catalogue, shared by the runner and the diff.

Names, units, directions and bounds are read from ``BENCHMARK.json`` at
the repository root, the one place they are written down.  This module
adds only what that file has no field for: which per-layer metrics are
exact work counts, and which counts each ratio is computed from.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

#: end-to-end metrics (tracing off): name -> (unit, better).  Every
#: workload reports every one; what a "unit of work" and a "request"
#: are per workload is in perfbench/README.md.
END_TO_END = {m["name"]: (m["unit"], m["better"])
              for m in SPEC["end_to_end"]}

#: end-to-end name -> the share by which its median may get worse.
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

#: per-layer metrics (tracing on): name -> (unit, better).
PER_LAYER = {m["name"]: (m["unit"], m["better"])
             for m in SPEC["per_layer"]}

#: per-layer work counts that must repeat exactly across runs with the
#: same seed; the rest are timings or depend on how the two service
#: clients interleave.
EXACT = frozenset({
    "frontend.ops",
    "core.passes", "core.ffwd_passes", "core.ffwd_accepts",
    "core.ffwd_attempts", "core.ffwd_accept_ratio",
    "timing.evaluates", "timing.commits", "timing.commit_cache_hits",
    "timing.commit_cache_lookups", "timing.commit_cache_hit_ratio",
    "flow.variant_builds", "flow.pickle_bytes", "flow.parent_served",
    "flow.cache_hits", "flow.cache_lookups", "flow.cache_hit_ratio",
    "dse.fresh_evaluations", "dse.store_hits", "dse.dominated_winners",
    "sim.cycles", "sim.vectors", "sim.mismatches",
    "rtl.bytes", "dataflow.stalled_cycles",
    "qor.area", "qor.latency_cycles", "qor.feasible_points",
})

#: ratios, each with the two counts it is computed from.
RATIOS = {
    "timing.commit_cache_hit_ratio": ("timing.commit_cache_hits",
                                      "timing.commit_cache_lookups"),
    "core.ffwd_accept_ratio": ("core.ffwd_accepts",
                               "core.ffwd_attempts"),
    "flow.cache_hit_ratio": ("flow.cache_hits", "flow.cache_lookups"),
    "service.dedup_ratio": ("service.dedup_hits", "service.submitted"),
    "service.store_hit_rate": ("service.store_hits",
                               "service.store_lookups"),
}
