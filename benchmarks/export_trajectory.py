#!/usr/bin/env python
"""Export a per-commit performance trajectory point.

Runs the three step-loop workloads (saturated / low-load / idle) and
writes ``BENCH_<sha>.json`` — one small self-describing
document per commit, so a directory of them IS the performance
trajectory of the repository (plot ops/s over history, spot the commit
that regressed the allocator, etc.).

Usage::

    python benchmarks/export_trajectory.py                 # ./BENCH_<sha>.json (repo root)
    python benchmarks/export_trajectory.py --out-dir /tmp  # elsewhere

``ops/s`` is simulated cycles per wall-clock second (the step loop's
natural throughput unit); each number is the median of ``--rounds``
timed repetitions on a warmed network.  The numbers sit under
``engines.reference``, the key every earlier trajectory point uses, so
old and new points stay comparable.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.protocols import make_scheme  # noqa: E402
from repro.sim.config import SimConfig  # noqa: E402
from repro.sim.network import Network  # noqa: E402
from repro.topology.faults import inject_link_faults  # noqa: E402
from repro.topology.mesh import mesh  # noqa: E402
from repro.traffic.synthetic import UniformRandomTraffic  # noqa: E402

#: Workload name -> (injection rate or None for idle, cycles per round).
WORKLOADS = {
    "saturated": (0.30, 100),
    "low_load": (0.02, 100),
    "idle": (None, 1000),
}


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def _make_network(rate):
    topo = inject_link_faults(mesh(8, 8), 8, random.Random(1))
    traffic = (
        UniformRandomTraffic(topo, rate=rate, seed=1) if rate is not None else None
    )
    net = Network(topo, SimConfig(), make_scheme("static-bubble"), traffic, seed=1)
    net.run(200 if rate is not None else 50)  # warm
    return net


def measure(rounds: int) -> dict:
    point = {}
    for name, (rate, cycles) in WORKLOADS.items():
        net = _make_network(rate)
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            net.run(cycles)
            times.append(time.perf_counter() - t0)
        times.sort()
        median = times[len(times) // 2]
        point[name] = {
            "cycles_per_round": cycles,
            "median_seconds": median,
            "best_seconds": times[0],
            "ops_per_s": cycles / median,
        }
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        # Repo root: CI uploads BENCH_*.json from there, and a checkout's
        # accumulated documents ARE the perf trajectory.
        default=str(Path(__file__).resolve().parent.parent),
        help="directory for BENCH_<sha>.json (default: the repo root)",
    )
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)

    sha = git_sha()
    doc = {
        "sha": sha,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {
            name: {"rate": rate, "cycles_per_round": cycles}
            for name, (rate, cycles) in WORKLOADS.items()
        },
        "engines": {"reference": measure(args.rounds)},
    }

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{sha}.json"
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(out_path)
    for name, row in doc["engines"]["reference"].items():
        print(f"  {name:9s} {row['ops_per_s']:12.0f} cycles/s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
