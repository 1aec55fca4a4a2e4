"""Specs and payloads from before the ``engine`` spec field was retired.

Every payload stored while :class:`SimSpec` carried ``engine`` echoes
``"engine": "reference"`` in its ``spec``, and older clients may still send
``"engine": "fast"``.  Such specs must keep their fingerprints, still
parse, still answer as warm hits, and still feed surrogate calibration.
``legacy_spec_blob.json`` is a payload exactly as the store held it then.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.queue import DONE, JobQueue
from repro.service.server import fingerprint_for
from repro.service.spec import SimSpec, run_sim_spec, spec_identity
from repro.service.store import ResultStore, spec_fingerprint
from repro.surrogate.calibrate import calibrate_from_store

LEGACY_PATH = Path(__file__).with_name("legacy_spec_blob.json")

#: ``spec_fingerprint(spec_identity(...))`` computed while the field
#: existed; specs without ``engine``, with ``"reference"`` and with
#: ``"fast"`` all mapped to the same value.
PINNED_FINGERPRINTS = {
    "faulted-mesh": (
        SimSpec(link_faults=4, rate=0.02, warmup=150, measure=400),
        "855b5f855b88945c63a627cc7f5a6d6b2fb38893b14a19bdb3042ff9803c7965",
    ),
    "router-faults-auto": (
        SimSpec(router_faults=2, scheme="escape-vc", mode="auto", seed=7),
        "de03dc163c009ece6f68de0d20db55e61d0e577ac12c826b3a99f4cd526630ba",
    ),
    "circulant": (
        SimSpec(topology="circulant:11,2,5", scheme="spanning-tree", rate=0.05),
        "a767e34636b5b672aeaa1401da3040206f9d0ae90ba507462303dc090449249d",
    ),
}


@pytest.fixture(scope="module")
def legacy():
    """``{"fingerprint": ..., "payload": ...}`` as stored before the change."""
    return json.loads(LEGACY_PATH.read_text())


@pytest.fixture()
def store(tmp_path, legacy):
    store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
    store.put(legacy["fingerprint"], legacy["payload"])
    return store


def _must_not_run(spec_dict):
    raise AssertionError(f"warm hit simulated again: {spec_dict}")


@pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
@pytest.mark.parametrize("engine", [None, "reference", "fast"])
def test_pinned_fingerprints_unchanged(name, engine):
    spec, pinned = PINNED_FINGERPRINTS[name]
    spec_dict = spec.to_dict()
    if engine is not None:
        spec_dict["engine"] = engine
    assert spec_fingerprint(spec_identity(spec_dict)) == pinned


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_from_dict_drops_legacy_engine(engine):
    assert SimSpec.from_dict({**SimSpec().to_dict(), "engine": engine}) == SimSpec()


@pytest.mark.parametrize(
    "extra", [{"engine": "warp"}, {"engine": None}, {"engin": "reference"}]
)
def test_from_dict_still_rejects_unknown(extra):
    with pytest.raises(ValueError):
        SimSpec.from_dict({**SimSpec().to_dict(), **extra})


def test_legacy_blob_is_a_warm_hit(store, legacy):
    spec = SimSpec.from_dict(legacy["payload"]["spec"])
    assert fingerprint_for(spec) == legacy["fingerprint"]
    queue = JobQueue(runner=_must_not_run, store=store, workers=1)
    for submitted in (spec.to_dict(), legacy["payload"]["spec"]):
        record, fresh = queue.submit(submitted)
        assert not fresh
        assert record.state == DONE and record.cached
        assert record.result == legacy["payload"]


def test_legacy_blob_enters_calibration(store):
    assert calibrate_from_store(store).sample_count == 1


def test_rerun_reproduces_legacy_blob(legacy):
    stored = legacy["payload"]
    rerun = run_sim_spec(stored["spec"])
    assert rerun["spec"] == {k: v for k, v in stored["spec"].items() if k != "engine"}
    for key in ("result", "stats", "topology"):
        assert rerun[key] == stored[key]
