"""Campaign benchmark: one command, three workloads, every metric checked.

Usage (from the repository root)::

    python3 campaignbench/run.py --workload lowload-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload and prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` runs it with the per-layer hooks of
:mod:`campaignbench.tracing`, prints every per-layer metric, and writes a
Chrome trace under ``campaignbench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it name each metric with its unit, the
tail percentile and sample count behind each tail, and ``error_rate``.

Every run is hermetic: all ``REPRO_*`` variables are cleared before the
program is imported, so the defaults a user gets are what is measured;
each pass starts from an empty routing-table memo; stores (and with them
the surrogate calibration) live in a temporary directory under
``campaignbench/out/`` that the run removes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
#: Simulated outputs of every workload on :data:`PINNED_SEED` (``--pin``).
PINNED_PATH = BENCH_DIR / "pinned.json"
PINNED_SEED = 1
#: Separate processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or exit non-zero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"campaignbench: no program source under {ROOT / 'src'}\n")
        sys.exit(2)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pin() -> None:
    """Record the first-pass digests of every workload on the pinned seed.

    Run only when a change is meant to alter simulated outputs; the
    digests are what every later run on that seed is checked against.
    """
    from campaignbench.workloads import WORKLOADS, Ledger, make_workload

    pinned: Dict[str, Any] = {"seed": PINNED_SEED, "workloads": {}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        workload = make_workload(name, PINNED_SEED, {})
        workload.ledger = ledger = Ledger()
        root = Path(tempfile.mkdtemp(prefix="pin-", dir=OUT_DIR))
        ledger.install()
        try:
            workload.setup(root)
            result = workload.run_pass(0)
        finally:
            workload.close()
            ledger.uninstall()
            shutil.rmtree(root, ignore_errors=True)
        errors = [op.error for op in result.ops if op.error]
        if errors:
            raise RuntimeError(f"{name}: refusing to pin a failing pass: {errors[:3]}")
        digests = dict(result.digests)
        entry: Dict[str, Any] = {"cells": digests}
        if "rows" in digests:
            entry["rows"] = digests.pop("rows")
        pinned["workloads"][name] = entry
    PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def _pinned(workload: str, seed: int) -> Dict[str, Any]:
    """Pinned digests of ``workload``; empty on any seed but the pinned one."""
    if not PINNED_PATH.is_file():
        return {}
    pinned = json.loads(PINNED_PATH.read_text())
    if pinned.get("seed") != seed:
        return {}
    return pinned.get("workloads", {}).get(workload, {})


# -- setup probes ------------------------------------------------------------


def setup_probe(workload_name: str, seed: int) -> None:
    """Child side: set up like a real run, say when ready, then clean up."""
    from campaignbench.workloads import make_workload

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR))
    try:
        workload = make_workload(workload_name, seed, {})
        workload.setup(root)
        print("ready", flush=True)
        workload.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def measure_setup(workload_name: str, seed: int, count: int) -> List[float]:
    """Seconds from process start to ready, in ``count`` fresh processes."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, env=dict(os.environ),
        )
        try:
            line = child.stdout.readline()
            ready = time.perf_counter() - started
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
        times.append(ready)
    return times


# -- the run -----------------------------------------------------------------


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    overrides: Optional[Dict[str, Any]] = None,
    out_dir: Path = OUT_DIR,
) -> Dict[str, Any]:
    """One run; ``overrides`` resize the workload (the tests use small ones)."""
    from campaignbench import layers
    from campaignbench.stats import median, summarize
    from campaignbench.tracing import Tracer
    from campaignbench.workloads import Ledger, Op, make_workload

    # Setup is probed before and after the passes, so its median is not
    # taken from a single moment of the run.
    probes_before = 0 if trace else SETUP_PROBES // 2 + 1
    setup_times = measure_setup(workload_name, seed, probes_before)
    tracer = Tracer() if trace else None
    workload = make_workload(
        workload_name, seed,
        {} if overrides else _pinned(workload_name, seed), **(overrides or {}),
    )
    workload.ledger = ledger = Ledger(tracer)
    out_dir.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    ledger.install()
    passes = []
    traced_layers = []
    try:
        workload.setup(root)
        # A workload's pass is sized to a nominal length, so a run makes
        # the same number of passes (and samples) on every seed.  A traced
        # run alternates traced and untraced passes, so it has at least
        # one of each to price the tracing overhead.
        count = max(2 if trace else 1, int(seconds // workload.pass_seconds))
        for index in range(count):
            traced = trace and index % 2 == 0
            if traced:
                first, phases = len(tracer.spans), tracer.phase_snapshot()
                tracer.install()
            try:
                result = workload.run_pass(index, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                traced_layers.append(layers.pass_layers(tracer, first, phases, result))
            result.traced = traced
            passes.append(result)
    finally:
        workload.close()
        ledger.uninstall()
        shutil.rmtree(root, ignore_errors=True)

    if not trace:
        setup_times += measure_setup(workload_name, seed, SETUP_PROBES - probes_before)
    ops: List[Op] = [op for result in passes for op in result.ops]
    if workload.repeats_inputs:
        reference = passes[0].digests
        for result in passes[1:]:
            same = result.digests == reference
            ops.append(Op("check", 0.0, None if same else "pass outputs differ from pass 0"))
    failed = [op for op in ops if op.error is not None]
    for op in failed[:10]:
        print(f"FAILED {op.kind}: {op.error}", file=sys.stderr)

    spec = _spec()
    section = "per_layer" if trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    lines: List[str] = []
    if trace:
        values = layers.combine(traced_layers, passes)
        path = out_dir / f"trace-{workload_name}-seed{seed}.json"
        tracer.write_chrome(path)
        lines.append(f"chrome trace: {path} ({len(tracer.spans)} spans)")
    else:
        values = {}
        values["setup_s"] = median(setup_times)
        values["campaign_wall_s"] = median([p.wall for p in passes])
        for name, samples, scale in (
            ("cell", ledger.cell_seconds, 1.0),
            ("job_cold", [op.seconds for op in ops if op.kind == "job_cold"], 1.0),
            ("job_warm", [op.seconds for op in ops if op.kind == "job_warm"], 1000.0),
        ):
            summary = summarize(samples)
            unit = "ms" if scale != 1.0 else "s"
            values[f"{name}_p50_{unit}"] = summary["p50"] * scale
            values[f"{name}_tail_{unit}"] = summary["tail"] * scale
            lines.append(
                f"{name}_tail_{unit} is p{summary['tail_pct']} of {summary['n']} samples"
            )
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lines.append(f"passes {len(passes)}; setup probes {[round(t, 4) for t in setup_times]}")
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    error_rate = len(failed) / len(ops)
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(f"error_rate = {error_rate:.6g} ratio ({len(failed)} of {len(ops)} operations)")
    for line in lines:
        print(line)
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("lowload-sweep", "saturation-sweep", "service-mixed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help=f"rewrite {PINNED_PATH.name} from seed {PINNED_SEED} and exit")
    args = parser.parse_args(argv)
    _import_program()
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
