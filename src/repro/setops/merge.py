"""Candidate filters and reference merges on strictly increasing id arrays.

The engines' set operations themselves live in :mod:`repro.setops.kernels`
(``merge_intersect`` / ``merge_subtract`` and their adaptive siblings).
This module holds the two candidate filters every executor applies after
a level's set ops — symmetry-breaking lower bounds and injectivity
excludes — plus a pure-Python one-pass merge, the independent reference
the property-based tests compare every kernel against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "lower_bound_filter",
    "exclude_values",
    "merge_intersect_py",
    "merge_subtract_py",
]

_EMPTY = np.empty(0, dtype=np.int32)


def _as_ids(a: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int32)
    return arr if arr.size else _EMPTY


def lower_bound_filter(values: np.ndarray, bound: int) -> np.ndarray:
    """Keep elements strictly greater than ``bound`` (sorted input).

    This is the symmetry-breaking filter: all synthesized restrictions are
    lower bounds on later levels, so filtering is a single binary search —
    the hardware analog is pruning whole segments during head-list
    generation (paper section 4, stage 2).
    """
    values = _as_ids(values)
    cut = int(np.searchsorted(values, bound, side="right"))
    return values[cut:]


def exclude_values(values: np.ndarray, forbidden: Iterable[int]) -> np.ndarray:
    """Remove specific ids (the injectivity filter for reused ancestors).

    One vectorized mask pass: each forbidden id is located with a binary
    search and the hits are dropped together, instead of one ``np.delete``
    copy per id (which is O(k·n) and sits on every level with excludes).
    """
    values = _as_ids(values)
    if values.size == 0:
        return values
    ids = np.fromiter(forbidden, dtype=np.int64)
    if ids.size == 0:
        return values
    pos = np.searchsorted(values, ids)
    pos[pos == values.size] = 0
    hits = pos[values[pos] == ids]
    if hits.size == 0:
        return values
    keep = np.ones(values.size, dtype=bool)
    keep[hits] = False
    return values[keep]


# ----------------------------------------------------------------------
# Pure-Python reference merges (used by property tests as an oracle)
# ----------------------------------------------------------------------


def merge_intersect_py(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """One-pass merge intersection, exactly the hardware comparator walk."""
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            out.append(a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return out


def merge_subtract_py(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """One-pass merge subtraction ``a − b``."""
    out: list[int] = []
    i = j = 0
    while i < len(a):
        if j >= len(b) or a[i] < b[j]:
            out.append(a[i])
            i += 1
        elif a[i] == b[j]:
            i += 1
            j += 1
        else:
            j += 1
    return out
