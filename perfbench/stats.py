"""Sample summaries: the median and the highest percentile that still has
at least ten samples beyond it."""

from __future__ import annotations

import math

LADDER = (75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so that 99.9 % of 10000 is 9990 and not 9991)."""
    return max(math.ceil(round(p * n / 100, 6)), 1)


def percentile(xs, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    return sorted(xs)[rank(len(xs), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail(xs):
    """(p, value, samples beyond) for the highest percentile in LADDER with
    at least MIN_BEYOND samples beyond it, or None when there is none."""
    best = None
    for p in LADDER:
        if beyond(len(xs), p) >= MIN_BEYOND:
            best = p
    if best is None:
        return None
    return best, percentile(xs, best), beyond(len(xs), best)


def median(xs) -> float:
    s = sorted(xs)
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def describe(xs, unit: str, scale: float = 1.0) -> str:
    """One line: the median, the tail percentile if any, and the count."""
    text = f"median {median(xs) * scale:.4f} {unit}"
    t = tail(xs)
    if t is None:
        text += f" (too few samples for a p{LADDER[0]:g} with " \
                f"{MIN_BEYOND} beyond)"
    else:
        p, v, k = t
        text += f", p{p:g} {v * scale:.4f} {unit} ({k} beyond)"
    return text + f", samples {len(xs)}"
