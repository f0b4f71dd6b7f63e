"""Calibration unit: a fixed numpy-only workload timed next to every span.

The unit has three parts, one per kind of work samsbo spends its time in:
Cholesky factorizations at n = 200 (the MCMC likelihoods and GP fits), a
short pure Python loop (interpreter overhead), and a grid-prediction-shaped
pass of exp and matrix product over a 2048 x 100 block, which streams memory
where the Cholesky stays in cache.  Neighbouring load slows the parts by
different amounts: alone, the Cholesky part tracks MCMC work well and grid
prediction badly, the block part the reverse.  The mix tracks all workloads
to within a few percent over a second or more, so timings divided by an
adjacent unit stay comparable while the machine's speed drifts.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

CHOLESKY_N = 200
CHOLESKY_REPEATS = 8
PYTHON_LOOP = 10_000
BLOCK_ROWS, BLOCK_COLS = 2048, 100
UNITS_PER_SAMPLE = 3
CADENCE_S = 0.4  # between samples in a run of short spans


def _spd_matrix() -> np.ndarray:
    x = np.linspace(0.0, 1.0, CHOLESKY_N)
    return np.exp(-0.5 * ((x[:, None] - x[None, :]) / 0.1) ** 2) + 0.1 * np.eye(CHOLESKY_N)


class Calibrator:
    """Takes calibration samples, always between timed spans, never inside one.

    ``maybe()`` samples when ``CADENCE_S`` has passed since the last sample,
    which suits runs of many short spans; ``now()`` samples unconditionally,
    for the edges of long spans.  Each sample is the median of a few units.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._matrix = _spd_matrix()
        rows = np.linspace(0.0, 1.0, BLOCK_ROWS)[:, None]
        cols = np.linspace(0.0, 1.0, BLOCK_COLS)[None, :]
        self._block = ((rows - cols) / 0.2) ** 2
        self._weights = np.linalg.inv(np.linalg.cholesky(self._matrix[:BLOCK_COLS, :BLOCK_COLS]))
        self._unit()  # first call pays LAPACK and page-fault warm-up

    def _unit(self) -> float:
        start = time.perf_counter()
        for _ in range(CHOLESKY_REPEATS):
            np.linalg.cholesky(self._matrix)
        acc = 0
        for i in range(PYTHON_LOOP):
            acc += i * i
        v = np.exp(-0.5 * self._block) @ self._weights.T
        np.sum(v * v, axis=1)
        return time.perf_counter() - start

    def now(self) -> float:
        unit = statistics.median(self._unit() for _ in range(UNITS_PER_SAMPLE))
        self.samples.append((time.perf_counter(), unit))
        return unit

    def maybe(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= CADENCE_S:
            self.now()
