"""Machine speed probe, and timings corrected to a reference speed.

Shared hosts drift: the same fixed loop runs anywhere between about 0.7x and
1.3x its usual time, in phases of seconds to tens of seconds, on both cores
at once. No affordable run length averages that out. So the benchmark runs a
fixed probe between requests (outside their latency) and reports request
latencies at the reference speed, where the probe takes PROBE_REF_S: a time measured
while the probe ran at ``p`` seconds is multiplied by ``PROBE_REF_S / p``.
The uncorrected wall-clock figures stay in each run's stamp.

Set-up samples are corrected only for the slow part of the drift. Single
probes around a 0.4 s fresh interpreter track its speed poorly (r = 0.3)
and widened the spread. The median probe of the whole timed loop, which the
set-up samples straddle, does remove the minutes-long drift: between two
sets of ten runs, uncorrected set-up medians differed by up to 27 %,
corrected ones by at most 4 %.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_REF_S = 1.0e-3
PROBE_NEIGHBOURS = 8  # probes on each side of a request that set its local speed

# small complex products and a normalisation in a Python loop: the same
# regime of interpreter dispatch over tiny arrays as most tkd requests
_A = np.eye(4, dtype=np.complex128) + 0.1 + 0.05j


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    t0 = time.perf_counter()
    x = _A
    for _ in range(80):
        x = _A @ x @ _A.conj().T
        x = x / np.trace(x)
    return time.perf_counter() - t0


def corrected_latencies(loop: dict) -> np.ndarray:
    """Request latencies (s) of a closed loop at the reference speed; the
    local probe time of a request is the median of the probes nearest to it."""
    at, probes = loop["probe_at_s"], loop["probe_s"]
    mid = loop["begin_s"] + loop["latency_s"] / 2
    k = PROBE_NEIGHBOURS
    local = np.array([np.median(probes[max(0, i - k):i + k]) for i in np.searchsorted(at, mid)])
    return loop["latency_s"] * (PROBE_REF_S / local)


def corrected_setup(samples: list[float], loop: dict) -> float:
    """Median set-up time (s) at the reference speed of the run's timed loop."""
    return float(np.median(samples)) * PROBE_REF_S / float(np.median(loop["probe_s"]))
