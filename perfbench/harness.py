"""Arithmetic of the benchmark harness: tail percentiles, calibration
normalization, operation accounting and trace digests.

Pure Python with no third-party imports, so the orchestrating process can use
it without loading numpy and the tests can check it without samsbo.
"""
from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass

TAIL_SAMPLES = 10

OK, STALLED, UNSAFE, RAISED = "ok", "stalled", "unsafe", "raised"


def tail(values: list[float], beyond: int = TAIL_SAMPLES) -> tuple[float, float, int]:
    """Highest percentile that still has at least ``beyond`` samples above it.

    Returns (value, percentile, sample count).  With N sorted samples the
    value is the one at zero-based index N - beyond - 1, so exactly ``beyond``
    samples lie beyond it, and its percentile is 100 * (N - beyond) / N.
    With N <= ``beyond`` no percentile qualifies (the workloads are sized so
    this happens only when operations raise early); the maximum is returned
    as percentile 100.
    """
    n = len(values)
    if n == 0:
        raise ValueError("a tail needs at least one sample")
    ordered = sorted(values)
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def adjacent_unit(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Calibration unit adjacent to the span [start, end].

    ``samples`` holds (time, unit seconds) pairs in time order.  The adjacent
    unit is the mean of the last sample taken at or before ``start`` and the
    first taken at or after ``end``; a side without a sample is left out.
    """
    before = [c for t, c in samples if t <= start]
    after = [c for t, c in samples if t >= end]
    sides = ([before[-1]] if before else []) + ([after[0]] if after else [])
    if not sides:
        raise ValueError("no calibration sample adjacent to the span")
    return sum(sides) / len(sides)


def normalize(raw_s: float, unit_s: float, nominal_s: float) -> float:
    """Seconds rescaled to a machine whose calibration unit takes ``nominal_s``."""
    if unit_s <= 0.0:
        raise ValueError("calibration unit must take positive time")
    return raw_s * nominal_s / unit_s


def normalize_spans(spans: list[tuple[float, float]], samples: list[tuple[float, float]],
                    nominal_s: float) -> list[float]:
    """Normalized durations of (start, end) spans against their adjacent units."""
    return [normalize(end - start, adjacent_unit(samples, start, end), nominal_s)
            for start, end in spans]


def classify(raised: bool, stalled: bool, unsafe: bool) -> str:
    """Outcome of one operation; an unsafe evaluation outranks a stall."""
    if raised:
        return RAISED
    if unsafe:
        return UNSAFE
    if stalled:
        return STALLED
    return OK


def run_ops(op, count: int, between=None, independent: bool = False):
    """Time ``count`` operations ``op(i)``, each returning (stalled, unsafe).

    ``between()`` runs before each operation, outside its span.  An operation
    that raises fails.  Unless the operations are ``independent`` (coverage
    trials), every later one fails with it: the state a raising loop step
    leaves is unknown, so the run stops there.  Returns the (start, end)
    spans, the tally and the error messages.
    """
    spans: list[tuple[float, float]] = []
    tally = Tally()
    errors: list[str] = []
    for i in range(count):
        if between is not None:
            between()
        start = time.perf_counter()
        try:
            stalled, unsafe = op(i)
        except Exception as exc:  # noqa: BLE001 - benchmark boundary: record and count
            spans.append((start, time.perf_counter()))
            errors.append(f"operation {i}: {exc!r}")
            if independent:
                tally.add(RAISED)
                continue
            tally.add(RAISED, count - i)
            break
        spans.append((start, time.perf_counter()))
        tally.add(classify(False, stalled, unsafe))
    return spans, tally, errors


@dataclass
class Tally:
    """Operations attempted and failed, by outcome."""

    attempted: int = 0
    stalled: int = 0
    unsafe: int = 0
    raised: int = 0

    def add(self, outcome: str, count: int = 1) -> None:
        self.attempted += count
        if outcome != OK:
            setattr(self, outcome, getattr(self, outcome) + count)

    @property
    def failed(self) -> int:
        return self.stalled + self.unsafe + self.raised


def digest(rows) -> str:
    """SHA-256 over the deterministic fields of result rows.

    Each row is a sequence of values; floats are written with ``repr`` so
    that any change in any bit shows.
    """
    h = hashlib.sha256()
    for row in rows:
        h.update("|".join(repr(v) for v in row).encode())
        h.update(b"\n")
    return h.hexdigest()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
