"""Order statistics and digests for the campaign benchmark.

Timings are summarised as a median plus a *tail*: the highest integer
percentile that still has at least :data:`MIN_BEYOND` samples above it,
reported together with that percentile and the sample count so two runs
with different sample counts are never compared blindly.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Sequence

#: Samples that must lie beyond a percentile for it to count as the tail.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in (0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return ordered[rank - 1]


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[int]:
    """Highest integer percentile in [50, 99] with ``min_beyond`` samples above it.

    "Above" counts the samples ranked after the nearest-rank position of
    the percentile.  ``None`` when even the median leaves fewer than
    ``min_beyond`` samples beyond it (fewer than ``2 * min_beyond``
    samples).
    """
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100.0) >= min_beyond:
            return p
    return None


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median and tail of a sample, with the tail's percentile and count.

    A sample too small for a tail reports its median as the tail, with
    ``tail_pct`` 50, so the value is still defined; ``n`` says why.
    """
    if not values:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": None}
    pct = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "tail": percentile(values, pct if pct is not None else 50),
        "tail_pct": pct if pct is not None else 50,
    }


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair when even)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def canonical(value: Any) -> str:
    """Canonical JSON text: the byte-identity used for every output check."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """SHA-256 of :func:`canonical`, shortened to 16 hex digits."""
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:16]


def finite_numbers(values: List[Any]) -> bool:
    """True when every value is a real, finite number (bools excluded)."""
    return all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        for v in values
    )
