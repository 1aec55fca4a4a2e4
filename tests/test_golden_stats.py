"""Golden per-scheme statistics for the simulation engine.

Each scenario runs a seeded network and reduces what it observed to one
SHA-256 digest; ``golden_stats.json`` pins those digests.  Per-cycle
scenarios fold ``dataclasses.asdict(net.stats)`` after *every* cycle into
a hash chain, then fold in the final ``stats.summary()``, so a change to
any counter on any cycle (measurement window, recovery, probe, energy
activity) changes the digest.

The pinned values were produced by two independent cycle-loop
implementations (an object-per-VC engine and a struct-of-arrays engine)
that agreed on every digest, so a mismatch means the simulator's
semantics moved, not that the fixture is stale.  If a change is meant to
alter results, regenerate the fixture with
``PYTHONPATH=src python tests/test_golden_stats.py > tests/golden_stats.json``
and justify the new digests in review.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.protocols import make_scheme
from repro.sim.config import SimConfig
from repro.sim.deadlock import DeadlockMonitor
from repro.sim.network import Network
from repro.topology.faults import inject_link_faults
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic

GOLDEN_PATH = Path(__file__).with_name("golden_stats.json")

ALL_SCHEMES = [
    "adaptive",
    "adaptive-escape",
    "escape-vc",
    "minimal-unprotected",
    "spanning-tree",
    "static-bubble",
    "xy",
]


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _fold(digest: str, obj) -> str:
    """One hash-chain link: ``sha256(previous digest || canonical obj)``."""
    return hashlib.sha256(digest.encode() + _canon(obj)).hexdigest()


def _stats(net):
    return dataclasses.asdict(net.stats)


def _make(scheme_name, *, rate=0.25, faults=8, seed=1, fault_seed=1):
    """A seeded network on an 8x8 mesh with ``faults`` link faults."""
    topo = inject_link_faults(mesh(8, 8), faults, random.Random(fault_seed))
    traffic = UniformRandomTraffic(topo, rate=rate, seed=seed)
    return Network(topo, SimConfig(), make_scheme(scheme_name), traffic, seed=seed)


def per_cycle(scheme_name):
    """Stats after every one of 500 cycles, then the final summary."""
    net = _make(scheme_name)
    digest = ""
    for _ in range(500):
        net.step()
        digest = _fold(digest, _stats(net))
    return _fold(digest, net.stats.summary())


def measurement_window(scheme_name):
    """``begin_window`` mid-run: windowed latency/throughput counters."""
    net = _make(scheme_name, rate=0.15)
    net.run(200)
    net.stats.begin_window(net.cycle)
    net.run(300)
    assert net.stats.window_start_cycle == 200
    assert net.stats.window_packets_ejected > 0
    return _fold(_fold("", _stats(net)), net.stats.summary())


def deadlock_verdicts(scheme_name):
    """The deadlock oracle's verdict after each of 700 cycles."""
    net = _make(scheme_name, rate=0.30, faults=10, fault_seed=3)
    monitor = DeadlockMonitor(interval=32)
    digest = ""
    for _ in range(700):
        net.step()
        digest = _fold(digest, monitor.check(net, net.cycle))
    return _fold(
        digest,
        [sorted(monitor.deadlocked_pids), monitor.first_deadlock_cycle, _stats(net)],
    )


def recovery_activity():
    """Static-bubble recovery at saturation on a heavily faulted mesh."""
    net = _make("static-bubble", rate=0.30, faults=10, fault_seed=3)
    net.run(900)
    # With ten faults at saturation the protocol must have done real work;
    # a digest of an idle network would pin nothing about recovery.
    assert net.stats.probes_sent > 0
    assert net.stats.recoveries_completed + net.stats.recoveries_aborted > 0
    return _fold(_fold("", _stats(net)), net.stats.summary())


def live_reconfig(scheme_name):
    """``apply_faults`` then ``restore`` of a router and a link mid-run."""
    net = _make(scheme_name, rate=0.10, faults=4)
    net.run(150)
    applied = net.apply_faults(routers=[27], links=[(9, 10)])
    net.run(150)
    net.restore(routers=[27], links=[(9, 10)])
    net.run(150)
    return _fold(_fold("", applied), [_stats(net), net.stats.summary()])


def post_warm_escape_conversion():
    """``add_escape_vcs(reserve_existing=False)`` after 150 warm cycles."""
    topo = mesh(4, 4)
    traffic = UniformRandomTraffic(topo, rate=0.10, seed=2)
    net = Network(
        topo, SimConfig(width=4, height=4), make_scheme("spanning-tree"), traffic, seed=2
    )
    net.run(150)
    for router in net.active_routers():
        router.add_escape_vcs(reserve_existing=False)
    net.run(300)
    return _fold(_fold("", _stats(net)), net.stats.summary())


WINDOW_SCHEMES = ("static-bubble", "escape-vc")
MONITOR_SCHEMES = ("static-bubble", "minimal-unprotected", "adaptive")
RECONFIG_SCHEMES = ("static-bubble", "adaptive")

#: Fixture key (``name`` or ``name[scheme]``) -> zero-argument digest.
SCENARIOS = {
    "recovery_activity": recovery_activity,
    "post_warm_escape_conversion": post_warm_escape_conversion,
}
for _scenario, _schemes in (
    (per_cycle, ALL_SCHEMES),
    (measurement_window, WINDOW_SCHEMES),
    (deadlock_verdicts, MONITOR_SCHEMES),
    (live_reconfig, RECONFIG_SCHEMES),
):
    for _scheme in _schemes:
        SCENARIOS[f"{_scenario.__name__}[{_scheme}]"] = functools.partial(
            _scenario, _scheme
        )


def _check(key):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert SCENARIOS[key]() == golden[key], f"{key} diverged from golden stats"


def test_fixture_covers_every_scenario():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(SCENARIOS)


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_per_cycle_stats(scheme_name):
    _check(f"per_cycle[{scheme_name}]")


@pytest.mark.parametrize("scheme_name", WINDOW_SCHEMES)
def test_measurement_window(scheme_name):
    _check(f"measurement_window[{scheme_name}]")


@pytest.mark.parametrize("scheme_name", MONITOR_SCHEMES)
def test_deadlock_monitor_verdicts(scheme_name):
    _check(f"deadlock_verdicts[{scheme_name}]")


def test_recovery_activity():
    _check("recovery_activity")


@pytest.mark.parametrize("scheme_name", RECONFIG_SCHEMES)
def test_live_reconfig(scheme_name):
    _check(f"live_reconfig[{scheme_name}]")


def test_post_warm_escape_conversion():
    _check("post_warm_escape_conversion")


if __name__ == "__main__":
    print(json.dumps({key: fn() for key, fn in sorted(SCENARIOS.items())}, indent=2))
