"""Scrambled Sobol points without importing ``scipy.stats``.

:func:`scrambled_sobol` returns, bit for bit, what
``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random(n)`` returns,
without the warning scipy gives when ``n`` is not a power of two.  It follows
scipy's construction and the order in which scipy draws its random bits:

1. Direction numbers with 30 bits, built by the Bratley–Fox recurrence from
   the primitive polynomials and initial numbers of Joe and Kuo (S. Joe and
   F. Y. Kuo, "Constructing Sobol sequences with better two-dimensional
   projections", SIAM J. Sci. Comput. 30, 2008).  Dimension 0 has all
   direction numbers equal to one.  Column j is shifted left by 29 - j.
2. Linear matrix scrambling with a digital shift (J. Matoušek, "On the
   L2-discrepancy for anchored boxes", J. Complexity 14, 1998), drawn from
   ``np.random.default_rng(seed)``: first the shift, 30 random bits per
   dimension, then one random lower-triangular 30 × 30 bit matrix per
   dimension with a unit diagonal.  Row p of that matrix yields bit 29 - p of
   each scrambled direction number, as the parity of the row (read as a
   30-bit number) AND the old number.
3. Point 0 is the shift; point i ≥ 1 XORs the direction number of the lowest
   zero bit of i - 1 into point i - 1 (Gray-code order).  Points are scaled
   by 2^-30.

The Joe–Kuo table is the one scipy ships, ``stats/_sobol_direction_numbers.npz``
in the installed scipy.  Its path comes from :func:`samsbo._scipy.path`,
which knows scipy's file layout without executing ``scipy/stats/__init__.py``.
The table holds 21,201 rows, 3.2 MB, of which a call reads only what its d
dimensions use (:func:`_joe_kuo_rows`): the first d entries of ``poly`` and,
of ``vinit``, the first d rows of the columns that those polynomials'
degrees reach (5 of its 18 for d = 10).  scipy 1.17.1 stores
``vinit`` Fortran-ordered, so each such column is one read from the
compressed member.  The direction numbers are kept per d; no copy of the
table outlives a call.
"""
from __future__ import annotations

import functools
import zipfile

import numpy as np

from . import _scipy

__all__ = ["scrambled_sobol"]

BITS = 30
MAX_DIMENSION = 21201
MAX_POINTS = 2 ** BITS
TABLE_PATH = _scipy.path("stats", "_sobol_direction_numbers.npz")


def _leading_block(archive: zipfile.ZipFile, name: str, rows: int,
                   cols: int | None = None) -> np.ndarray:
    """The first ``rows`` entries of the 1-D array ``name`` in ``archive``, or the first
    ``rows`` rows of the first ``cols`` columns of a Fortran-ordered 2-D one.

    The compressed member is decompressed only as far as the last entry read;
    another layout raises ``ValueError``.
    """
    with archive.open(name + ".npy") as f:
        version = np.lib.format.read_magic(f)
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
        if version != (1, 0) or (cols is not None and not fortran):
            raise ValueError(f"{TABLE_PATH}: {name}.npy is not a version 1.0 "
                             f"{'Fortran-ordered ' if cols is not None else ''}array")
        start, size = f.tell(), dtype.itemsize
        if cols is None:
            return np.frombuffer(f.read(rows * size), dtype)
        out = np.empty((rows, cols), dtype)
        for j in range(cols):           # column j starts shape[0] entries after column j - 1
            f.seek(start + j * shape[0] * size)
            out[:, j] = np.frombuffer(f.read(rows * size), dtype)
        return out


def _joe_kuo_rows(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``d`` primitive polynomials and their initial direction numbers.

    The numbers are the columns of ``vinit`` that the polynomials' degrees
    reach, shape (d, largest degree).  A missing table raises
    ``FileNotFoundError`` naming ``TABLE_PATH``.
    """
    with zipfile.ZipFile(TABLE_PATH) as archive:
        poly = _leading_block(archive, "poly", d)
        degree = max(int(p).bit_length() - 1 for p in poly)
        return poly, _leading_block(archive, "vinit", d, degree)


@functools.cache
def _direction_numbers(d: int) -> np.ndarray:
    """Unscrambled (d, 30) direction numbers, column j shifted by 29 - j; read-only, once per d."""
    poly, vinit = _joe_kuo_rows(d)
    v = np.ones((d, BITS), dtype=np.int64)
    for i in range(1, d):
        p = int(poly[i])
        m = p.bit_length() - 1
        row = [int(x) for x in vinit[i, :m]]
        for j in range(m, BITS):
            new = row[j - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[i] = row
    v <<= np.arange(BITS - 1, -1, -1)
    v.setflags(write=False)
    return v


def scrambled_sobol(d: int, n: int, seed) -> np.ndarray:
    """The first ``n`` points, shape (n, d), of the scrambled Sobol sequence.

    ``seed`` is anything ``np.random.default_rng`` accepts.  Raises
    ``ValueError`` unless 1 <= d <= 21201 and 0 <= n <= 2**30.
    """
    if not 1 <= d <= MAX_DIMENSION:
        raise ValueError(f"d must lie in 1..{MAX_DIMENSION}, got {d}")
    if not 0 <= n <= MAX_POINTS:
        raise ValueError(f"n must lie in 0..2**{BITS}, got {n}")
    rng = np.random.default_rng(seed)
    weights = 2 ** np.arange(BITS, dtype=np.uint32)
    shift = rng.integers(0, 2, size=(d, BITS), dtype=np.uint32) @ weights
    lms = np.tril(rng.integers(0, 2, size=(d, BITS, BITS), dtype=np.uint32))
    lms[:, np.arange(BITS), np.arange(BITS)] = 1

    # bits[r, q, j] is bit 29 - q of direction number j of dimension r, so the
    # scramble is a product of bit matrices over GF(2)
    place = np.arange(BITS - 1, -1, -1)
    v = _direction_numbers(d)
    bits = (v[:, None, :] >> place[None, :, None]) & 1
    scrambled = ((lms @ bits) & 1) << place[None, :, None]
    directions = scrambled.sum(axis=1).astype(np.uint32)

    counter = np.arange(n - 1, dtype=np.int64)
    lowest_zero = np.frexp((counter + 1) & ~counter)[1] - 1
    points = np.empty((n, d), dtype=np.uint32)
    points[:1] = shift
    points[1:] = np.bitwise_xor.accumulate(directions[:, lowest_zero].T, axis=0) ^ shift
    return points * (1.0 / MAX_POINTS)
