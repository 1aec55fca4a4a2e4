"""Per-layer metrics of a traced run, and what each one should move.

:data:`TARGETS` is the table every later performance change cites: for
each per-layer metric, the end-to-end metrics it should move and the
workloads on which it should move them.  (``BENCHMARK.json`` allows no
extra keys, so the table lives here; the benchmark's tests keep the two
in step.)

Times ending in ``_s`` are seconds per campaign pass (the mean over the
traced passes), so they compare directly with ``campaign_wall_s``.
Counts that must repeat exactly are taken from the first pass.  A layer
a workload never reaches reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

from campaignbench.stats import median
from campaignbench.tracing import PHASES, Tracer, self_time

#: metric -> (end-to-end metrics it should move, workloads where it does).
TARGETS: Dict[str, tuple] = {
    "topology.build_s": (("campaign_wall_s", "job_cold_p50_s"), ("lowload-sweep", "service-mixed")),
    "routing.build_tables_s": (("campaign_wall_s", "cell_p50_s", "job_cold_p50_s"), ("lowload-sweep", "service-mixed")),
    "routing.build_tables_calls": (("campaign_wall_s", "cell_p50_s", "job_cold_p50_s"), ("lowload-sweep", "service-mixed")),
    "routing.build_tables_repeat_ratio": (("campaign_wall_s", "cell_p50_s", "job_cold_p50_s"), ("lowload-sweep", "service-mixed")),
    "protocols.setup_s": (("cell_p50_s",), ("lowload-sweep",)),
    "sim.network_init_s": (("cell_p50_s", "campaign_wall_s"), ("lowload-sweep",)),
    "sim.network_init_self_s": (("cell_p50_s", "campaign_wall_s"), ("lowload-sweep",)),
    "sim.step_s": (("campaign_wall_s", "cell_tail_s"), ("saturation-sweep",)),
    "sim.cycles": (("campaign_wall_s", "cell_tail_s"), ("saturation-sweep",)),
    "sim.cycles_per_s": (("campaign_wall_s", "cell_tail_s"), ("saturation-sweep",)),
    "sim.step.traffic_s": (("campaign_wall_s",), ("saturation-sweep",)),
    "sim.step.ni_inject_s": (("campaign_wall_s",), ("saturation-sweep",)),
    "protocols.on_cycle_s": (("campaign_wall_s",), ("saturation-sweep",)),
    "protocols.process_specials_s": (("campaign_wall_s",), ("saturation-sweep",)),
    "sim.step.alloc_self_s": (("campaign_wall_s",), ("saturation-sweep",)),
    "sim.packets_ejected": ((), ("lowload-sweep", "saturation-sweep")),
    "protocols.sb_recoveries": ((), ("lowload-sweep", "saturation-sweep")),
    "service.fingerprint_s": (("job_warm_p50_ms",), ("service-mixed",)),
    "service.http.submit_ms_p50": (("job_warm_p50_ms",), ("service-mixed",)),
    "service.store.get_ms_p50": (("job_warm_p50_ms",), ("service-mixed",)),
    "service.store.hit_ratio": (("job_warm_p50_ms",), ("service-mixed",)),
    "service.queue.memo_hits": (("job_warm_p50_ms",), ("service-mixed",)),
    "service.queue.wait_ms_p50": (("job_cold_p50_s",), ("service-mixed",)),
    "service.execute_s_p50": (("job_cold_p50_s",), ("service-mixed",)),
    "service.store.put_ms_p50": (("job_cold_p50_s",), ("service-mixed",)),
    "surrogate.observe_ms_p50": (("job_cold_p50_s", "job_cold_tail_s"), ("service-mixed",)),
    "surrogate.answered_ratio": (("job_cold_p50_s", "job_cold_tail_s"), ("service-mixed",)),
    "campaign.setup_share": (("campaign_wall_s",), ("lowload-sweep", "saturation-sweep")),
    "trace.overhead_s": ((), ("lowload-sweep", "saturation-sweep", "service-mixed")),
}


def pass_layers(
    tracer: Tracer, first: int, before: Dict[str, tuple], result
) -> Dict[str, Any]:
    """Layer totals and samples of one traced pass (spans from ``first`` on)."""
    after = tracer.phase_snapshot()
    phase = {name: after[name][0] - before[name][0] for name in PHASES}
    spans = defaultdict(list)
    for span in tracer.spans[first:]:
        spans[span.name].append(span)

    def total(name: str) -> float:
        return sum(span.duration for span in spans[name])

    builds = spans["routing.build_tables"]
    gets = spans["service.store.get"]
    return {
        "wall": result.wall,
        "topology.build_s": total("topology.build"),
        "routing.build_tables_s": total("routing.build_tables"),
        "builds": len(builds),
        "repeats": sum(1 for span in builds if span.args["repeat"]),
        "protocols.setup_s": total("protocols.setup"),
        "sim.network_init_s": total("sim.network_init"),
        "sim.network_init_self_s": self_time(tracer.spans, first, "sim.network_init"),
        "sim.step_s": phase["sim.step"],
        "sim.step.traffic_s": phase["sim.step.traffic"],
        "sim.step.ni_inject_s": phase["sim.step.ni_inject"],
        "protocols.on_cycle_s": phase["protocols.on_cycle"],
        "protocols.process_specials_s": phase["protocols.process_specials"],
        "cycles": after["sim.step"][1] - before["sim.step"][1],
        "service.fingerprint_s": total("service.fingerprint"),
        "submit_ms": [s.duration * 1e3 for s in spans["service.http.submit"]],
        "get_ms": [s.duration * 1e3 for s in gets],
        "get_hits": sum(1 for s in gets if s.args.get("hit")),
        "put_ms": [s.duration * 1e3 for s in spans["service.store.put"]],
        "execute_s": [s.duration for s in spans["service.execute"]],
        "wait_ms": [
            s.args["wait_s"] * 1e3
            for s in spans["service.execute"]
            if s.args.get("wait_s") is not None
        ],
        "observe_ms": [s.duration * 1e3 for s in spans["surrogate.observe"]],
    }


def combine(traced: List[Dict[str, Any]], passes: list) -> Dict[str, float]:
    """Per-layer metrics from the traced passes of a run."""
    count = len(traced)

    def mean(key: str) -> float:
        return sum(t[key] for t in traced) / count

    def p50(key: str) -> float:
        samples = [v for t in traced for v in t[key]]
        return median(samples) if samples else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    first = traced[0]
    values: Dict[str, float] = {
        name: mean(name)
        for name in (
            "topology.build_s", "routing.build_tables_s", "protocols.setup_s",
            "sim.network_init_s", "sim.network_init_self_s", "sim.step_s",
            "sim.step.traffic_s", "sim.step.ni_inject_s", "protocols.on_cycle_s",
            "protocols.process_specials_s", "service.fingerprint_s",
        )
    }
    values["sim.step.alloc_self_s"] = values["sim.step_s"] - sum(
        values[name]
        for name in (
            "sim.step.traffic_s", "sim.step.ni_inject_s",
            "protocols.on_cycle_s", "protocols.process_specials_s",
        )
    )
    values["routing.build_tables_calls"] = first["builds"]
    values["routing.build_tables_repeat_ratio"] = ratio(first["repeats"], first["builds"])
    values["sim.cycles"] = first["cycles"]
    values["sim.cycles_per_s"] = ratio(
        sum(t["cycles"] for t in traced), sum(t["sim.step_s"] for t in traced)
    )
    values["sim.packets_ejected"] = passes[0].ejected
    values["protocols.sb_recoveries"] = passes[0].recoveries
    values["service.http.submit_ms_p50"] = p50("submit_ms")
    values["service.store.get_ms_p50"] = p50("get_ms")
    values["service.store.hit_ratio"] = ratio(
        sum(t["get_hits"] for t in traced), sum(len(t["get_ms"]) for t in traced)
    )
    values["service.queue.memo_hits"] = passes[0].memo_hits
    values["service.queue.wait_ms_p50"] = p50("wait_ms")
    values["service.execute_s_p50"] = p50("execute_s")
    values["service.store.put_ms_p50"] = p50("put_ms")
    values["surrogate.observe_ms_p50"] = p50("observe_ms")
    traced_passes = [p for p in passes if p.traced]
    values["surrogate.answered_ratio"] = ratio(
        sum(p.surrogate_answered for p in traced_passes),
        sum(p.auto_submitted for p in traced_passes),
    )
    setup = values["topology.build_s"] + values["sim.network_init_s"]
    values["campaign.setup_share"] = ratio(setup, setup + values["sim.step_s"])
    untraced = [p.wall for p in passes if not p.traced]
    values["trace.overhead_s"] = median([t["wall"] for t in traced]) - median(untraced)
    return values
