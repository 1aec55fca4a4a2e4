"""Class-level tracing hooks for the campaign benchmark's traced run.

The benchmark changes no program file.  For the length of a traced pass
it wraps public functions and methods of :mod:`repro` — at class level,
or wherever a module holds a reference to the function — and restores
the originals afterwards.  Two kinds of boundary are recorded in memory:

* **spans** (name, start, end, parent span, id of the cell or job they
  belong to, thread) around coarse calls: topology build, routing-table
  builders, ``Network.__init__``, scheme ``setup``, one simulation window,
  result-store reads and writes, fingerprinting, HTTP submission, queue
  admission, and the queue's execution and surrogate-feedback hooks;
* **phases** around per-cycle calls (``Network.step``, traffic
  generation, NI injection, scheme ``on_cycle`` and ``process_specials``).
  There are millions of these per campaign, so only their time and call
  count are accumulated; every simulation-window span carries the phase
  totals it covered, which keeps the per-cycle split in the trace.

A re-entrant call (``super().setup()`` inside ``setup``) merges into the
outer span or phase, so a layer's time is never counted twice.  Self time
is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Accumulated per-cycle phases, outermost first.
PHASES = (
    "sim.step",
    "sim.step.traffic",
    "sim.step.ni_inject",
    "protocols.on_cycle",
    "protocols.process_specials",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: str = ""
    tid: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Phase:
    __slots__ = ("total", "calls", "active")

    def __init__(self) -> None:
        self.total = 0.0
        self.calls = 0
        self.active = False


class Tracer:
    """Spans and phase totals of the traced passes of one run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phases: Dict[str, Phase] = {name: Phase() for name in PHASES}
        #: ``perf_counter`` origin of the Chrome trace timeline.
        self.origin = time.perf_counter()
        #: (builder, canonical topology spec, arguments) seen this pass.
        self.seen_tables: set = set()
        #: job id -> ``perf_counter`` when the queue admitted it as new work.
        self.admitted_at: Dict[str, float] = {}
        self.installed = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []
        self._fingerprint: Optional[Callable[[Dict[str, Any]], str]] = None

    # -- spans -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: str) -> None:
        """Id given to root spans this thread opens until the next call."""
        self._local.op = op

    def open(self, name: str, op: Optional[str] = None, **args: Any) -> int:
        stack = self._stack()
        if stack and self.spans[stack[-1]].name == name:
            return -1
        parent = stack[-1] if stack else -1
        if op is None:
            op = self.spans[parent].op if parent >= 0 else getattr(self._local, "op", "")
        span = Span(
            name, time.perf_counter(), parent=parent, op=op,
            tid=threading.get_ident(), args=args,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, **args: Any) -> None:
        if index < 0:
            return
        span = self.spans[index]
        span.end = time.perf_counter()
        span.args.update(args)
        self._stack().pop()

    def phase_snapshot(self) -> Dict[str, Tuple[float, int]]:
        return {name: (p.total, p.calls) for name, p in self.phases.items()}

    def fingerprint(self, spec_dict: Dict[str, Any]) -> str:
        """Job id of a spec, computed with the unwrapped fingerprint."""
        from repro.service.spec import spec_identity

        assert self._fingerprint is not None
        return self._fingerprint(spec_identity(dict(spec_dict)))

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, func: Callable, op_of=None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name, op_of(args) if op_of is not None else None)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(index)

        return wrapper

    def _phase_wrapper(self, name: str, func: Callable) -> Callable:
        phase = self.phases[name]
        perf = time.perf_counter
        consume = inspect.isgeneratorfunction(func)

        def wrapper(*args, **kwargs):
            if phase.active:
                return func(*args, **kwargs)
            phase.active = True
            started = perf()
            try:
                # A generator does its work while being iterated, so
                # drain it inside the timed region.
                return list(func(*args, **kwargs)) if consume else func(*args, **kwargs)
            finally:
                phase.total += perf() - started
                phase.calls += 1
                phase.active = False

        return wrapper

    def _builder_wrapper(self, func: Callable) -> Callable:
        tracer = self

        def wrapper(topo, *args, **kwargs):
            key = (
                func.__name__,
                json.dumps(topo.to_spec(), sort_keys=True),
                repr(args),
                repr(sorted(kwargs.items())),
            )
            repeat = key in tracer.seen_tables
            tracer.seen_tables.add(key)
            index = tracer.open(
                "routing.build_tables", builder=func.__name__, repeat=repeat
            )
            try:
                return func(topo, *args, **kwargs)
            finally:
                tracer.close(index)

        return wrapper

    def _sim_wrapper(self, func: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            before = tracer.phase_snapshot()
            index = tracer.open("sim.run")
            try:
                return func(*args, **kwargs)
            finally:
                after = tracer.phase_snapshot()
                tracer.close(
                    index,
                    **{
                        name + "_s": after[name][0] - before[name][0]
                        for name in PHASES
                    },
                    cycles=after["sim.step"][1] - before["sim.step"][1],
                )

        return wrapper

    def _store_wrapper(self, name: str, func: Callable) -> Callable:
        tracer = self

        def wrapper(store, fp, *args, **kwargs):
            index = tracer.open(name, fp)
            value = None
            try:
                value = func(store, fp, *args, **kwargs)
                return value
            finally:
                tracer.close(index, hit=value is not None)

        return wrapper

    def _admit_wrapper(self, func: Callable) -> Callable:
        tracer = self

        def wrapper(queue, spec, *args, **kwargs):
            index = tracer.open("service.queue.submit")
            try:
                record, fresh = func(queue, spec, *args, **kwargs)
            finally:
                tracer.close(index)
            if fresh:
                tracer.admitted_at[record.job_id] = time.perf_counter()
            if index >= 0:
                tracer.spans[index].op = record.job_id
            return record, fresh

        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, func: Callable, wrapper: Callable) -> None:
        """Replace every reference a ``repro`` module holds to ``func``."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, wrapper)

    def _classes(self, package: str) -> List[type]:
        found: Dict[int, type] = {}
        for module_name, module in list(sys.modules.items()):
            if module_name != package and not module_name.startswith(package + "."):
                continue
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__.startswith(package):
                    found[id(value)] = value
        return list(found.values())

    def install(self) -> None:
        """Wrap every traced boundary; :meth:`uninstall` restores them."""
        from repro.experiments import common
        from repro.routing import table
        from repro.service.client import ServiceClient
        from repro.service.queue import JobQueue
        from repro.service.spec import SimSpec
        from repro.service import store as store_module
        from repro.sim.network import Network
        from repro.sim.ni import NetworkInterface

        if self.installed:
            return
        self._fingerprint = store_module.spec_fingerprint
        self.seen_tables = set()
        for builder in (table.build_minimal_tables, table.build_updown_tables):
            self._patch_function(builder, self._builder_wrapper(builder))
        self._patch_function(
            common.topologies_for,
            self._span_wrapper("topology.build", common.topologies_for),
        )
        self._patch_function(
            store_module.spec_fingerprint,
            self._span_wrapper("service.fingerprint", store_module.spec_fingerprint),
        )
        # ``run_with_window`` may already be wrapped by the run's
        # output checks; wrap whatever the calling modules hold.
        from repro.service import spec as spec_module

        for module in (common, spec_module):
            self._set(module, "run_with_window", self._sim_wrapper(module.run_with_window))
        self._set(
            SimSpec, "build_topology",
            self._span_wrapper("topology.build", SimSpec.build_topology),
        )
        self._set(Network, "__init__", self._span_wrapper("sim.network_init", Network.__init__))
        self._set(Network, "step", self._phase_wrapper("sim.step", Network.step))
        self._set(
            NetworkInterface, "try_inject",
            self._phase_wrapper("sim.step.ni_inject", NetworkInterface.try_inject),
        )
        for cls in self._classes("repro.traffic"):
            if "packets_at" in cls.__dict__:
                self._set(
                    cls, "packets_at",
                    self._phase_wrapper("sim.step.traffic", cls.__dict__["packets_at"]),
                )
        for cls in self._classes("repro.protocols"):
            if "setup" in cls.__dict__:
                self._set(cls, "setup", self._span_wrapper("protocols.setup", cls.__dict__["setup"]))
            for attr, phase in (
                ("on_cycle", "protocols.on_cycle"),
                ("process_specials", "protocols.process_specials"),
            ):
                if attr in cls.__dict__:
                    self._set(cls, attr, self._phase_wrapper(phase, cls.__dict__[attr]))
        self._set(
            store_module.ResultStore, "get",
            self._store_wrapper("service.store.get", store_module.ResultStore.get),
        )
        self._set(
            store_module.ResultStore, "put",
            self._store_wrapper("service.store.put", store_module.ResultStore.put),
        )
        self._set(JobQueue, "submit", self._admit_wrapper(JobQueue.submit))
        fingerprint = self.fingerprint
        self._set(
            ServiceClient, "submit",
            self._span_wrapper(
                "service.http.submit", ServiceClient.submit,
                op_of=lambda args: fingerprint(args[1].to_dict()),
            ),
        )
        self.installed = True

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self.installed = False

    # -- export ----------------------------------------------------------

    def write_chrome(self, path: Path) -> None:
        """Write every span as a Chrome ``trace_event`` complete event."""
        tids: Dict[int, int] = {}
        events: List[Dict[str, Any]] = []
        for index, span in enumerate(self.spans):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            args = {"op": span.op, "span": index, "parent": span.parent}
            args.update(span.args)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start - self.origin) * 1e6,
                    "dur": max(0.0, span.duration) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        for tid in tids.values():
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                 "args": {"name": f"thread-{tid}"}}
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def self_time(spans: List[Span], first: int, name: str) -> float:
    """Summed self time of spans called ``name`` among ``spans[first:]``."""
    covered: Dict[int, float] = {}
    for index in range(first, len(spans)):
        parent = spans[index].parent
        if parent >= first and spans[parent].name == name:
            covered[parent] = covered.get(parent, 0.0) + spans[index].duration
    return sum(
        spans[i].duration - covered.get(i, 0.0)
        for i in range(first, len(spans))
        if spans[i].name == name
    )
