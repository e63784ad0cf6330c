"""Which tail percentile a run's timing samples can support."""

from __future__ import annotations

__all__ = ["MIN_BEYOND", "PERCENTILES", "tail_percentile"]

PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10  # samples that must lie above a reported percentile


def tail_percentile(n: int) -> float | None:
    """Highest of :data:`PERCENTILES` with at least :data:`MIN_BEYOND` of ``n`` samples above it.

    None when even the median has fewer than :data:`MIN_BEYOND` samples beyond it.
    """
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:  # 100 - 99.9 is not exact in floats
            best = p
    return best
