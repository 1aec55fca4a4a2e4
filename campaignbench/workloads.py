"""The benchmark's workloads: two serial figure sweeps and a service stream.

Every workload is a *campaign* run in passes.  A sweep pass starts from
an empty routing-table memo and a fresh store, so every pass of a run
does the same cold work; a service pass is one round of new jobs.  A run
makes ``seconds // pass_seconds`` passes, so every seed gives the same
number of samples.  Inputs come from the workload seed through the
benchmark's own generator — the program only ever sees the generated
fault counts, sample seeds, cell seeds and specs.

Operations and the end-to-end metric each one feeds:

* ``cell`` — one simulation cell executing (sweeps: the cell function;
  service: the server's ``runner=`` call);
* ``job_cold`` — a request for a cell that has to simulate, timed from
  request to result (sweeps: ``fan_out(..., cached=True)`` on a missing
  cell; service: an HTTP job that is not answered from memo or store);
* ``job_warm`` — a repeated request answered without simulating (sweeps:
  the same ``fan_out`` call once the cell is stored; service: a repeat
  answered from the queue memo or, after the restart, from disk);
* ``surrogate`` — an ``auto`` job answered by the surrogate (service).

Every operation is checked; a failed check marks that operation failed
and never aborts the run.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.experiments import common
from repro.obs.metrics import MetricsRegistry
from repro.routing.table import clear_table_cache
from repro.service import spec as spec_module
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from repro.service.spec import SimSpec, run_sim_spec
from repro.service.store import ResultStore
from repro.sim.config import SimConfig

from campaignbench.stats import canonical, digest, finite_numbers

#: Client poll interval (s) for jobs that simulate.  The client's 0.1 s
#: default would round cold latencies up to 100 ms steps.
POLL_S = 0.01

#: Seconds the closed-loop client waits for any one job.
JOB_TIMEOUT_S = 120.0


@dataclass
class SimFact:
    """What one simulation window left behind, captured for the checks."""

    unaccounted: int
    ejected: int
    recoveries: int
    cycles: int


@dataclass
class Op:
    kind: str
    seconds: float
    error: Optional[str] = None


@dataclass
class PassResult:
    wall: float
    ops: List[Op]
    #: Cell or spec key -> digest of its simulated outputs, this pass.
    digests: Dict[str, str]
    #: Simulated counts of this pass (must repeat exactly).
    ejected: int = 0
    recoveries: int = 0
    memo_hits: int = 0
    auto_submitted: int = 0
    surrogate_answered: int = 0
    traced: bool = False


class Ledger:
    """Run-wide facts the checks and metrics need, gathered in and out of tracing.

    Wraps ``run_with_window`` where the sweep and service code call it, so
    every simulation window is checked for packet conservation
    (``created == ejected + dropped + occupancy + queued``) and its
    ejected packets, static-bubble recoveries and cycles are recorded.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.sims: List[SimFact] = []
        self.cell_seconds: List[float] = []
        #: Exact executions finished, and surrogate-feedback calls finished.
        self.executed = 0
        self.observed = 0
        self._undo: List[Tuple[Any, Any]] = []

    def install(self) -> None:
        """Start checking simulations and make this the running ledger."""
        global _LEDGER
        _LEDGER = self
        for module in (common, spec_module):
            original = module.run_with_window
            self._undo.append((module, original))
            module.run_with_window = self._checked(original)

    def uninstall(self) -> None:
        global _LEDGER
        while self._undo:
            module, original = self._undo.pop()
            module.run_with_window = original
        _LEDGER = None

    def _checked(self, run_with_window: Callable) -> Callable:
        sims = self.sims

        def wrapper(network, *args, **kwargs):
            result = run_with_window(network, *args, **kwargs)
            stats = network.stats
            sims.append(
                SimFact(
                    unaccounted=stats.packets_created
                    - stats.packets_ejected
                    - stats.packets_dropped_reconfig
                    - network.total_occupancy()
                    - network.queued_packets(),
                    ejected=stats.packets_ejected,
                    recoveries=stats.recoveries_completed,
                    cycles=network.cycle,
                )
            )
            return result

        return wrapper

    def tracing(self):
        tracer = self.tracer
        return tracer if tracer is not None and tracer.installed else None


#: Ledger of the running workload.  Cell functions and the service runner
#: are module-level (``fan_out`` and the job queue address them by import
#: path), so they reach the ledger through this name.
_LEDGER: Optional[Ledger] = None


def _ledger() -> Ledger:
    assert _LEDGER is not None, "no workload is running"
    return _LEDGER


def lowload_cell(topo, scheme, pattern, rate, config, warmup, measure, seed):
    """One fig8-shaped cell: latency at low load on one faulted mesh."""
    started = time.perf_counter()
    result, network = common.run_synthetic(
        topo, scheme, pattern, rate, config, warmup, measure, seed
    )
    value = {
        "avg_latency": result.avg_latency,
        "packets_ejected": result.packets_ejected,
        "stats": network.stats.summary(),
    }
    _ledger().cell_seconds.append(time.perf_counter() - started)
    return value


def saturation_cell(topo, scheme, config, rates, warmup, measure, seed):
    """One fig9-shaped cell: saturation throughput over an offered-load sweep."""
    started = time.perf_counter()
    value = {
        "throughput": common.saturation_throughput(
            topo, scheme, config, rates, warmup, measure, seed
        )
    }
    _ledger().cell_seconds.append(time.perf_counter() - started)
    return value


def job_runner(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """The service's ``runner=``: ``run_sim_spec``, timed."""
    ledger = _ledger()
    tracer = ledger.tracing()
    index = -1
    if tracer is not None:
        job_id = tracer.fingerprint(spec_dict)
        admitted = tracer.admitted_at.pop(job_id, None)
        index = tracer.open(
            "service.execute", job_id,
            wait_s=None if admitted is None else time.perf_counter() - admitted,
        )
    started = time.perf_counter()
    try:
        payload = run_sim_spec(spec_dict)
    finally:
        ledger.cell_seconds.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.close(index)
    ledger.executed += 1
    return payload


def conservation_error(facts: List[SimFact]) -> Optional[str]:
    if not facts:
        return "no simulation window recorded"
    for fact in facts:
        if fact.unaccounted:
            return f"packet conservation violated by {fact.unaccounted}"
    return None


def _facts_digest(facts: List[SimFact]) -> List[List[int]]:
    return [[f.ejected, f.recoveries, f.cycles] for f in facts]


# -- sweeps ----------------------------------------------------------------


@dataclass
class Sweep:
    """A serial fig8- or fig9-shaped sweep over sampled faulted meshes.

    Each pass samples its topologies, then requests every cell through
    ``fan_out(..., workers=1, cached=True)`` on a fresh result store — the
    cold sweep, whose wall time is ``campaign_wall_s`` — and requests it
    ``warm_repeats`` more times right after, answered by the store.  The
    warm requests are left out of the pass wall time.
    """

    #: Every pass runs the same inputs, so its outputs must repeat.
    repeats_inputs: ClassVar[bool] = True

    name: str
    cell: Callable
    seed: int
    pinned: Dict[str, Any]
    width: int = 8
    height: int = 8
    link_counts: Tuple[int, ...] = ()
    router_counts: Tuple[int, ...] = ()
    samples: int = 1
    #: Cells per (topology, scheme, pattern), each with its own traffic seed.
    traffic_samples: int = 1
    patterns: Tuple[str, ...] = ()
    rate: float = 0.02
    rates: Tuple[float, ...] = ()
    warmup: int = 400
    measure: int = 1000
    schemes: Tuple[str, ...] = common.SCHEME_ORDER
    #: Nominal seconds one pass takes; a run makes seconds // this passes.
    pass_seconds: float = 25.0
    #: Warm re-requests of each cell once it is stored.
    warm_repeats: int = 3
    ledger: Ledger = field(default_factory=Ledger)
    root: Optional[Path] = None

    @property
    def latency(self) -> bool:
        """Fig. 8 cells measure latency per pattern; fig. 9 cells throughput."""
        return self.cell is lowload_cell

    def setup(self, root: Path) -> None:
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        pass

    def _inputs(self) -> List[Tuple[str, int, int, List[int]]]:
        """(fault kind, count, sample seed, cell seeds) from the workload seed."""
        rng = random.Random(self.seed)
        inputs = []
        for kind, counts in (("link", self.link_counts), ("router", self.router_counts)):
            for count in counts:
                sample_seed = rng.randrange(1, 2**31)
                cell_seeds = [
                    rng.randrange(1, 2**31)
                    for _ in range(self.samples * self.traffic_samples)
                ]
                inputs.append((kind, count, sample_seed, cell_seeds))
        return inputs

    def _cells(self) -> List[Tuple[str, tuple, tuple]]:
        """(key, row key, args) in the order the paper's sweep runs them."""
        config = SimConfig(width=self.width, height=self.height)
        cells = []
        for kind, count, sample_seed, cell_seeds in self._inputs():
            topos = common.topologies_for(
                self.width, self.height, kind, count, self.samples, sample_seed
            )
            for pattern in self.patterns or (None,):
                for scheme in self.schemes:
                    for i, topo in enumerate(topos):
                        for j in range(self.traffic_samples):
                            seed = cell_seeds[i * self.traffic_samples + j]
                            if self.latency:
                                row = (pattern, kind, count, scheme)
                                args = (topo, scheme, pattern, self.rate, config,
                                        self.warmup, self.measure, seed)
                            else:
                                row = (kind, count, scheme)
                                args = (topo, scheme, config, list(self.rates),
                                        self.warmup, self.measure, seed)
                            key = "/".join(str(part) for part in row) + f"/{i}.{j}"
                            cells.append((key, row, args))
        return cells

    def _request(self, args: tuple, store: ResultStore) -> Any:
        return common.fan_out(self.cell, [args], workers=1, cached=True, store=store)[0]

    def _check_value(self, value: Any) -> Optional[str]:
        if not isinstance(value, dict):
            return f"cell returned {type(value).__name__}"
        if self.latency:
            numbers = [value.get("avg_latency"), value.get("packets_ejected")]
        else:
            numbers = [value.get("throughput")]
        if not finite_numbers(numbers) or min(numbers) < 0:
            return f"cell value out of range: {numbers}"
        return None

    def _pinned_check(self, key: str, cell_digest: str) -> Optional[str]:
        want = self.pinned.get("cells", {}).get(key)
        if want is not None and want != cell_digest:
            return f"digest {cell_digest} != pinned {want}"
        return None

    def run_pass(self, index: int, tracer=None) -> PassResult:
        assert self.root is not None
        ledger = self.ledger
        clear_table_cache()
        store = ResultStore(root=self.root / f"pass-{index}", registry=MetricsRegistry())
        ops: List[Op] = []
        digests: Dict[str, str] = {}
        cold: Dict[str, str] = {}
        rows: Dict[tuple, List[float]] = {}
        ejected = recoveries = 0
        warm_total = 0.0
        started = time.perf_counter()
        cells = self._cells()
        for key, row, args in cells:
            if tracer is not None:
                tracer.set_op(f"{self.name}/{index}/{key}")
            mark = len(ledger.sims)
            t0 = time.perf_counter()
            error: Optional[str] = None
            try:
                value = self._request(args, store)
            except Exception as exc:  # noqa: BLE001 — a failed cell, not a failed run
                value, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            facts = ledger.sims[mark:]
            if error is None:
                error = self._check_value(value) or conservation_error(facts)
            if error is None:
                cold[key] = canonical(value)
                cell_digest = digest([value, _facts_digest(facts)])
                digests[key] = cell_digest
                error = self._pinned_check(key, cell_digest)
                ejected += sum(f.ejected for f in facts)
                recoveries += sum(f.recoveries for f in facts)
                # As the paper's sweeps aggregate: cells that ejected
                # nothing carry no latency and are left out of the mean.
                if not self.latency:
                    rows.setdefault(row, []).append(value["throughput"])
                elif value["packets_ejected"]:
                    rows.setdefault(row, []).append(value["avg_latency"])
            ops.append(Op("job_cold", seconds, error))
            # Re-request the stored cell right away, so warm samples are
            # spread over the whole pass rather than taken in one burst.
            for _ in range(self.warm_repeats):
                t0 = time.perf_counter()
                try:
                    again = self._request(args, store)
                    stale = canonical(again) != cold.get(key)
                    error = "warm result differs from cold" if stale else None
                except Exception as exc:  # noqa: BLE001
                    error = f"{type(exc).__name__}: {exc}"
                warm_seconds = time.perf_counter() - t0
                warm_total += warm_seconds
                ops.append(Op("job_warm", warm_seconds, error))
        wall = time.perf_counter() - started - warm_total
        rows_digest = digest(
            sorted((list(row), sum(v) / len(v)) for row, v in rows.items())
        )
        digests["rows"] = rows_digest
        pinned_rows = self.pinned.get("rows")
        ops.append(
            Op(
                "check", 0.0,
                None if pinned_rows in (None, rows_digest)
                else f"rows digest {rows_digest} != pinned {pinned_rows}",
            )
        )
        return PassResult(wall, ops, digests, ejected=ejected, recoveries=recoveries)


def lowload_sweep(seed: int, pinned: Dict[str, Any], **overrides) -> Sweep:
    """Fig. 8 shape: low-load latency, all four schemes, two patterns."""
    params = dict(
        link_counts=(4, 8, 12, 16),
        router_counts=(2, 4, 6, 8),
        samples=2,
        patterns=("uniform_random", "bit_complement"),
        rate=0.02,
        warmup=400,
        measure=1000,
        pass_seconds=30.0,
    )
    params.update(overrides)
    return Sweep("lowload-sweep", lowload_cell, seed, pinned, **params)


def saturation_sweep(seed: int, pinned: Dict[str, Any], **overrides) -> Sweep:
    """Fig. 9 shape: saturation throughput over offered loads up to 0.30."""
    params = dict(
        link_counts=(4, 12),
        router_counts=(2, 6),
        samples=1,
        traffic_samples=2,
        rates=(0.05, 0.1, 0.2, 0.3),
        warmup=150,
        measure=300,
        pass_seconds=28.0,
    )
    params.update(overrides)
    return Sweep("saturation-sweep", saturation_cell, seed, pinned, **params)


# -- service ---------------------------------------------------------------


@dataclass
class ServiceMixed:
    """A closed loop of one HTTP client against an in-process service.

    Each pass is one round of the stream: one group of 8 new specs per
    entry of ``faults`` (a mesh with that many link or router faults,
    every scheme on it under both patterns).  The group is submitted cold
    — every ``auto_every``-th spec with ``mode=auto`` — then repeated,
    answered from the queue memo; then the server restarts on the same
    store and the group is repeated again, answered from disk.  Restarts
    are left out of the pass wall time: they cost the HTTP server's
    shutdown poll, not service work.
    """

    #: Each pass submits new specs.
    repeats_inputs: ClassVar[bool] = False

    seed: int
    pinned: Dict[str, Any]
    width: int = 8
    height: int = 8
    #: (fault kind, count) of each group's mesh; the seed places the faults.
    faults: Tuple[Tuple[str, int], ...] = (
        ("link", 4), ("router", 14), ("link", 16), ("router", 20),
    )
    patterns: Tuple[str, ...] = ("uniform_random", "bit_complement")
    rates: Tuple[float, ...] = (0.02, 0.05, 0.1)
    warmup: int = 100
    measure: int = 300
    auto_every: int = 4
    name: str = "service-mixed"
    pass_seconds: float = 9.0
    ledger: Ledger = field(default_factory=Ledger)
    root: Optional[Path] = None
    server: Optional[ServiceServer] = None
    client: Optional[ServiceClient] = None
    #: Job id -> canonical exact payload, the reference for every repeat.
    exact: Dict[str, str] = field(default_factory=dict)
    _memo_hits_closed: int = 0

    # -- lifecycle -------------------------------------------------------

    def setup(self, root: Path) -> None:
        self.root = root
        self._start_server()

    def _start_server(self) -> None:
        assert self.root is not None
        server = ServiceServer(
            host="127.0.0.1", port=0, store=ResultStore(root=self.root / "store"),
            runner=job_runner, quiet=True,
        )
        observe = server.queue.on_executed
        ledger = self.ledger

        def counted_observe(spec, payload):
            tracer = ledger.tracing()
            index = tracer.open("surrogate.observe", tracer.fingerprint(spec)) if tracer else -1
            try:
                if observe is not None:
                    observe(spec, payload)
            finally:
                if tracer is not None:
                    tracer.close(index)
                ledger.observed += 1

        server.queue.on_executed = counted_observe
        self.server = server.start()
        self.client = ServiceClient(server.url)

    def _stop_server(self) -> None:
        if self.server is None:
            return
        self._memo_hits_closed += self._memo_hits_live()
        self.server.queue.stop(wait=True)
        self.server.stop()
        self.server = None
        self.client = None

    def _memo_hits_live(self) -> int:
        if self.server is None:
            return 0
        return self.server.registry.counter("service.queue.memo_hit").value

    def close(self) -> None:
        self._stop_server()

    def _settle(self, timeout: float = 60.0) -> None:
        """Wait until surrogate feedback has seen every exact execution.

        ``auto`` answers depend on the calibration, so submitting one
        before the previous job's feedback lands would make the stream
        depend on thread timing.
        """
        deadline = time.perf_counter() + timeout
        while self.ledger.observed < self.ledger.executed:
            if time.perf_counter() > deadline:
                raise RuntimeError("surrogate feedback did not settle")
            time.sleep(0.0005)

    # -- inputs ----------------------------------------------------------

    def round_specs(self, index: int) -> List[SimSpec]:
        rng = random.Random(self.seed * 1_000_003 + index)
        specs = []
        for kind, count in self.faults:
            spec_seed = rng.randrange(1, 2**31)
            for offset, pattern in enumerate(self.patterns):
                for position, scheme in enumerate(common.SCHEME_ORDER, offset):
                    specs.append(
                        SimSpec(
                            width=self.width, height=self.height,
                            link_faults=count if kind == "link" else 0,
                            router_faults=count if kind == "router" else 0,
                            scheme=scheme, pattern=pattern,
                            rate=self.rates[position % len(self.rates)],
                            warmup=self.warmup, measure=self.measure, seed=spec_seed,
                        )
                    )
        return specs

    # -- one operation ---------------------------------------------------

    def _submit(self, spec: SimSpec, result: PassResult, index: int) -> None:
        ledger = self.ledger
        assert self.client is not None
        mark = len(ledger.sims)
        t0 = time.perf_counter()
        try:
            payload = self.client.run(spec, timeout=JOB_TIMEOUT_S, poll=POLL_S)
        except Exception as exc:  # noqa: BLE001 — a failed job, not a failed run
            result.ops.append(Op("job_cold", time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"))
            return
        seconds = time.perf_counter() - t0
        job_id = payload.get("job_id", "")
        if payload.get("status") != "done":
            result.ops.append(Op("job_cold", seconds, f"status {payload.get('status')}"))
            return
        if payload.get("surrogate"):
            result.surrogate_answered += 1
            bound = payload.get("result", {}).get("surrogate", {}).get("error_bound")
            error = None if finite_numbers([bound]) else f"surrogate answer without error bound: {bound!r}"
            result.ops.append(Op("surrogate", seconds, error))
            return
        blob = payload.get("result")
        known = self.exact.get(job_id)
        if known is not None:
            if not payload.get("cached"):
                error = "repeat of a finished job simulated again"
            elif canonical(blob) != known:
                error = "warm payload differs from cold payload"
            else:
                error = None
            result.ops.append(Op("job_warm", seconds, error))
            return
        facts = ledger.sims[mark:]
        error = None
        if payload.get("cached"):
            error = "new spec answered from cache"
        elif not isinstance(blob, dict) or not finite_numbers(
            [blob.get("result", {}).get("avg_latency"), blob.get("stats", {}).get("packets_ejected")]
        ):
            error = "malformed result payload"
        else:
            error = conservation_error(facts)
        if error is None:
            self.exact[job_id] = canonical(blob)
            spec_digest = digest([blob["result"], blob["stats"]])
            if index == 0:
                result.digests[job_id] = spec_digest
                want = self.pinned.get("cells", {}).get(job_id)
                if want is not None and want != spec_digest:
                    error = f"digest {spec_digest} != pinned {want}"
            result.ejected += sum(f.ejected for f in facts)
            result.recoveries += sum(f.recoveries for f in facts)
        result.ops.append(Op("job_cold", seconds, error))

    def run_pass(self, index: int, tracer=None) -> PassResult:
        specs = self.round_specs(index)
        order = random.Random(self.seed * 7_919 + index)
        result = PassResult(0.0, [], {})
        memo_start = self._memo_hits_closed + self._memo_hits_live()
        group_size = len(self.patterns) * len(common.SCHEME_ORDER)
        restarting = 0.0
        started = time.perf_counter()
        for first in range(0, len(specs), group_size):
            group = specs[first:first + group_size]
            for position, spec in enumerate(group, first):
                submitted = spec
                if position % self.auto_every == self.auto_every - 1:
                    self._settle()
                    result.auto_submitted += 1
                    submitted = dataclasses.replace(spec, mode="auto")
                self._submit(submitted, result, index)
            # Repeats wait for the feedback of the last execution, so they
            # time the memo, not a race with the queue's bookkeeping.
            self._settle()
            for spec in order.sample(group, len(group)):
                self._submit(spec, result, index)  # the queue memo answers
            t0 = time.perf_counter()
            self._settle()
            self._stop_server()
            self._start_server()
            restarting += time.perf_counter() - t0
            for spec in order.sample(group, len(group)):
                self._submit(spec, result, index)  # the disk answers
        result.wall = time.perf_counter() - started - restarting
        self._settle()
        result.memo_hits = self._memo_hits_closed + self._memo_hits_live() - memo_start
        return result


def make_workload(name: str, seed: int, pinned: Dict[str, Any], **overrides):
    factory = {
        "lowload-sweep": lowload_sweep,
        "saturation-sweep": saturation_sweep,
        "service-mixed": ServiceMixed,
    }[name]
    return factory(seed, pinned, **overrides)


WORKLOADS = ("lowload-sweep", "saturation-sweep", "service-mixed")
