"""Timing summaries and digests shared by every benchmark workload.

Every percentile the benchmark prints comes from :func:`percentile`
(nearest rank), and every summary carries its sample count, so a
reader can see how many samples lie beyond a reported percentile.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from typing import Any, Sequence

import numpy as np

#: Wall of one host probe (a numpy sort of 2**17 floats) on the
#: reference host: a 2-core x86-64 VM with the probe at its fast state.
PROBE_REF_S = 1.2e-3


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``.

    The smallest sample with at least ``q`` percent of the samples at
    or below it: rank ``ceil(q/100 * n)``.  Always an observed value,
    never an interpolation.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(values: Sequence[float], qs: Sequence[int] = (50, 90)
            ) -> dict[str, Any]:
    """``{"n": count, "mean": ..., "p50": ..., "p90": ...}``."""
    out: dict[str, Any] = {"n": len(values),
                           "mean": sum(values) / len(values)}
    for q in qs:
        out[f"p{q}"] = percentile(values, q)
    return out


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def digest(items: Any) -> str:
    """sha256 over the canonical JSON form of ``items``.

    Floats serialise through ``repr``, so equal digests mean the
    virtual-time values agree to the last bit.
    """
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class HostSpeed:
    """Samples a fixed numpy sort through a run to scale its timings.

    On a shared host, neighbouring tenants change the speed of a
    CPU-bound run by 10-30% for seconds to minutes, so raw walls of
    runs minutes apart differ by more than a regression worth catching.
    The probe slows with the host but not with the program, so a wall
    multiplied by :meth:`scale` reads as on a host where the probe
    takes :data:`PROBE_REF_S`.  Measured over ten seeds on the
    reference host, this halves the run-to-run spread of every batch
    timing; the raw walls stay in the report.
    """

    def __init__(self) -> None:
        self.keys = np.random.default_rng(0).random(1 << 17)
        self.samples: list[float] = []

    def sample(self, repeat: int = 1) -> None:
        for _ in range(repeat):
            t0 = time.perf_counter()
            np.sort(self.keys)
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Reference probe wall over this run's median probe wall."""
        return PROBE_REF_S / median(self.samples)
