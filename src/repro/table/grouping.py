"""First-appearance group factorization — the one grouping kernel.

:func:`factorize` maps each row of one or more key columns to a dense
group code, numbering groups in the order their key first appears.  The
SQL aggregate, :meth:`Table.group_by <repro.table.Table.group_by>`,
:meth:`Table.distinct <repro.table.Table.distinct>`, grouped
``count_distinct`` and the parallel partial aggregate all group through
it, so they agree on group numbering and on NULL keys: every NaN of a
float column is one key, as is every ``None`` of an object column, under
any number of key columns.
"""

from __future__ import annotations

from itertools import count
from typing import Sequence

import numpy as np


def factorize(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Group codes for rows of equal-length key arrays, and each group's first row.

    Returns ``(codes, first_rows)``: ``codes[i]`` is row ``i``'s group,
    numbered by first appearance, and ``first_rows[g]`` is the first row
    of group ``g`` (ascending, so ``len(first_rows)`` is the group count).
    Numeric keys group by value equality with NaN equal to NaN; object
    keys group by dict equality (``None`` matches ``None``).  Several keys
    are combined pairwise in mixed radix and renumbered after each step,
    so codes never exceed the row count.
    """
    codes, _ = _key_codes(keys[0])
    for values in keys[1:]:
        more, n_more = _key_codes(values)
        codes, _ = _key_codes(codes * n_more + more)
    return codes, _first_rows(codes)


def _first_rows(codes: np.ndarray) -> np.ndarray:
    """First row of each group, given first-appearance-numbered ``codes``.

    A row opens a new group exactly when its code exceeds every code
    before it.
    """
    if codes.size == 0:
        return np.empty(0, dtype=np.int64)
    seen = np.maximum.accumulate(codes)
    new = np.empty(codes.shape[0], dtype=bool)
    new[0] = True
    np.greater(codes[1:], seen[:-1], out=new[1:])
    return np.flatnonzero(new)


def dict_codes(items: list) -> tuple[np.ndarray, int]:
    """First-appearance codes of Python values under dict equality, and their count.

    Two dict passes that run in C: one collects the distinct values in
    first-appearance order, one looks every item up.
    """
    index = dict(zip(dict.fromkeys(items), count()))
    codes = np.fromiter(map(index.__getitem__, items), dtype=np.int64, count=len(items))
    return codes, len(index)


def _key_codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """First-appearance codes and the distinct count for one key array."""
    if values.dtype == object:
        return dict_codes(values.tolist())
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    rank = np.empty(first.shape[0], dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.shape[0], dtype=np.int64)
    return rank[inverse.reshape(-1)], int(first.shape[0])
