"""Tests of the campaign benchmark itself (run: python -m pytest campaignbench).

Workloads are shrunk to 4x4 meshes and short windows, so each run takes
seconds; the checks and metric plumbing are the same as a full run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from campaignbench import layers, run as bench  # noqa: E402
from campaignbench.stats import summarize, tail_percentile  # noqa: E402
from campaignbench.tracing import Tracer  # noqa: E402
from repro.experiments import common  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "lowload-sweep": dict(
        width=4, height=4, link_counts=(2,), router_counts=(1,),
        warmup=20, measure=60, pass_seconds=1.0,
    ),
    "saturation-sweep": dict(
        width=4, height=4, link_counts=(2,), router_counts=(), rates=(0.1, 0.3),
        warmup=20, measure=60, pass_seconds=1.0,
    ),
    "service-mixed": dict(
        width=4, height=4, faults=(("link", 2), ("router", 1)),
        warmup=20, measure=60, pass_seconds=1.0,
    ),
}
#: Any seed but the pinned one: only the invariant checks apply.
SEED = 5


def _run(tmp_path, workload, trace=False, seconds=2.0):
    return bench.run(workload, SEED, seconds, trace, overrides=SMALL[workload], out_dir=tmp_path)


def _expect(result, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_end_to_end_metric_is_emitted_with_its_unit(tmp_path, workload, capsys):
    result = _run(tmp_path, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    _expect(result, "end_to_end")
    printed = capsys.readouterr().out
    for metric in SPEC["end_to_end"]:
        assert f"{metric['name']} = " in printed
    assert "error_rate = 0 ratio" in printed


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_run_emits_every_per_layer_metric_and_a_chrome_trace(tmp_path, workload):
    result = _run(tmp_path, workload, trace=True)
    assert result["correct"], result
    _expect(result, "per_layer")
    trace = json.loads((tmp_path / f"trace-{workload}-seed{SEED}.json").read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"sim.network_init", "routing.build_tables", "sim.run"} <= names
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["sim.cycles"] > 0 and values["sim.step_s"] > 0
    if workload == "service-mixed":
        assert values["service.execute_s_p50"] > 0
        assert values["service.queue.memo_hits"] > 0


def test_per_layer_targets_match_benchmark_json():
    assert set(layers.TARGETS) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for moves, on in layers.TARGETS.values():
        assert set(moves) <= end_to_end and set(on) <= workloads


def test_corrupted_cell_result_raises_error_rate(tmp_path, monkeypatch):
    real = common.run_with_window

    def leaky(network, *args, **kwargs):
        result = real(network, *args, **kwargs)
        network.stats.packets_created += 1  # a packet the network lost
        return result

    monkeypatch.setattr(common, "run_with_window", leaky)
    result = _run(tmp_path, "lowload-sweep")
    assert not result["correct"]
    assert result["failed"] > 0


def test_warm_payload_differing_from_cold_raises_error_rate(tmp_path, monkeypatch):
    real_get = ResultStore.get

    def stale_get(store, fp):
        payload = real_get(store, fp)
        if payload is not None and "stats" in payload:
            payload["stats"]["packets_ejected"] += 1
        return payload

    monkeypatch.setattr(ResultStore, "get", stale_get)
    result = _run(tmp_path, "service-mixed")
    assert not result["correct"]
    assert result["failed"] > 0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(21) == 52
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    summary = summarize([float(v) for v in range(1, 101)])
    assert (summary["p50"], summary["tail"], summary["tail_pct"]) == (50.0, 90.0, 90)
    assert sum(1 for v in range(1, 101) if v > summary["tail"]) == 10


def test_tracer_restores_every_wrapped_attribute():
    from repro.service.queue import JobQueue
    from repro.sim.network import Network
    from repro.routing import table

    before = (Network.__init__, Network.step, JobQueue.submit, table.build_minimal_tables,
              ResultStore.get, common.topologies_for)
    tracer = Tracer()
    tracer.install()
    assert Network.step is not before[1]
    tracer.uninstall()
    after = (Network.__init__, Network.step, JobQueue.submit, table.build_minimal_tables,
             ResultStore.get, common.topologies_for)
    assert after == before
