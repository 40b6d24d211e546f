"""Columnar value storage: numpy-backed columns with a pure-python fallback.

The vectorized pipeline (PR 2) made batches first-class but still ran
python-object kernels over per-column *lists*.  This module supplies the
raw-speed layer underneath :class:`repro.core.tuples.TupleBatch`: each
column may be promoted to a read-only numpy array so predicate kernels,
selection-vector combination, and partitioning become C-speed array ops.

numpy is strictly optional (the ``perf`` extra in ``pyproject.toml``).
Everything here degrades to pure-python lists when it is absent, when the
``REPRO_NO_NUMPY=1`` environment variable forces the fallback (the CI leg
that proves the engine runs without it), or when a column's values are not
*promotable* — the engine is dynamically typed, so columns may mix types
or contain ``None``.

Promotion rules (see DESIGN.md §11):

* a column promotes only when every value is of a homogeneous numeric
  shape — all ``bool``, all ``int``, all ``float``, ``int``/``float``/
  ``bool`` mixes (promoted to the widest dtype), or all ``str``;
* any ``None``, any non-scalar, or a ``str``/numeric mix keeps the column
  a list and kernels take the per-element path;
* promoted arrays are **read-only** (``writeable=False``): columns are
  shared buffers once slices alias them, and the lineage-aliasing audit
  relies on numpy itself refusing writes.

All numpy usage in the engine goes through the helpers here; no other
module imports numpy directly.  That keeps the gate airtight and lets
:func:`numpy_disabled` flip the whole engine to the fallback in-process
for parity tests and benchmarks.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "ColumnStore", "as_array", "bisect_batch", "compare_array",
    "distinct_codes", "ewma_update", "have_numpy", "is_array", "mask_all",
    "mask_and", "mask_compress", "mask_count", "mask_invert", "mask_or",
    "mask_to_list", "numpy_disabled",
]

# The env gate is read once at import: REPRO_NO_NUMPY=1 forces the
# pure-python fallback even when numpy is importable, which is how the
# tier-1 "no numpy" leg runs without uninstalling anything.
if os.environ.get("REPRO_NO_NUMPY", "") not in ("", "0"):
    np = None
else:
    try:
        import numpy as np
    except ImportError:        # pragma: no cover - exercised via env gate
        np = None


def have_numpy() -> bool:
    """True when the array fast paths are active."""
    return np is not None


@contextlib.contextmanager
def numpy_disabled() -> Iterator[None]:
    """Force the pure-python fallback for the duration of the block.

    Used by parity tests and benchmarks to run the identical workload
    through both implementations in one process.  Only code that goes
    through this module's helpers is switched (which is all of it, by
    the module contract above).
    """
    global np
    saved, np = np, None
    try:
        yield
    finally:
        np = saved


def is_array(values: Any) -> bool:
    """True when ``values`` is a live numpy array (fallback-aware)."""
    return np is not None and isinstance(values, np.ndarray)


# Types a column may hold and still promote to an array.  ``str`` only
# promotes alone (a str/numeric mix would build an object array, which
# buys nothing over a list).
_NUMERIC = {bool, int, float}
_PROMOTABLE = _NUMERIC | {str}


def as_array(values: Any) -> Optional[Any]:
    """Promote a value list to a read-only 1-D array, or ``None``.

    ``None`` means "keep the list": numpy is off, the column is empty,
    holds ``None``/mixed/non-scalar values, or the conversion itself
    failed (e.g. ints beyond int64 raise ``OverflowError``).
    """
    if np is None:
        return None
    if is_array(values):
        return values
    if not isinstance(values, list) or not values:
        return None
    kinds = set(map(type, values))
    if not kinds <= _PROMOTABLE:
        return None
    if str in kinds and len(kinds) > 1:
        return None
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.ndim != 1 or arr.dtype == object:
        return None
    arr.setflags(write=False)
    return arr


class ColumnStore:
    """Per-column value storage for one :class:`TupleBatch`.

    Each column is held EITHER as a python list or as a read-only numpy
    array; promotion is lazy (first :meth:`array` call) and cached, and
    the list view of an array column is likewise cached (one C-speed
    ``tolist`` pass) so row materialization hands out python scalars,
    never numpy scalars.
    """

    __slots__ = ("cols", "_arrays", "_lists")

    def __init__(self, cols: Sequence[Any]):
        # Each entry: list | ndarray.
        self.cols: List[Any] = list(cols)
        self._arrays: Optional[List[Any]] = None   # per-column promo cache
        self._lists: Optional[List[Any]] = None    # per-column tolist cache

    def n_rows(self) -> int:
        if not self.cols:
            return 0
        return len(self.cols[0])

    def n_cols(self) -> int:
        return len(self.cols)

    # -- views -------------------------------------------------------------
    def array(self, i: int) -> Optional[Any]:
        """Column ``i`` as a read-only array, or ``None`` if unpromotable."""
        col = self.cols[i]
        if is_array(col):
            return col
        if self._arrays is None:
            self._arrays = [None] * len(self.cols)
        arr = self._arrays[i]
        if arr is None:
            arr = as_array(col)
            self._arrays[i] = arr if arr is not None else False
        return arr if arr is not False else None

    def values(self, i: int) -> List[Any]:
        """Column ``i`` as a python list (python scalars guaranteed)."""
        col = self.cols[i]
        if not is_array(col):
            return col
        if self._lists is None:
            self._lists = [None] * len(self.cols)
        lst = self._lists[i]
        if lst is None:
            lst = col.tolist()
            self._lists[i] = lst
        return lst

    def as_lists(self) -> List[List[Any]]:
        """All columns as python lists (cached per column)."""
        return [self.values(i) for i in range(len(self.cols))]

    def row(self, j: int) -> "tuple[Any, ...]":
        """Row ``j`` as a tuple of python scalars (no numpy leakage)."""
        out: List[Any] = []
        for col in self.cols:
            v = col[j]
            out.append(v.item() if is_array(col) else v)
        return tuple(out)

    # -- subsetting --------------------------------------------------------
    def _column_for_take(self, i: int) -> Any:
        """Prefer an already-promoted array for subsetting (array fancy
        indexing beats a python loop); never force a fresh promotion."""
        col = self.cols[i]
        if is_array(col):
            return col
        if self._arrays is not None:
            arr = self._arrays[i]
            if arr is not None and arr is not False:
                return arr
        return col

    def take(self, indexes: Sequence[int]) -> "ColumnStore":
        """Rows at ``indexes`` (in order) as a new store."""
        idx_arr = None
        out: List[Any] = []
        for i in range(len(self.cols)):
            col = self._column_for_take(i)
            if is_array(col):
                if idx_arr is None:
                    idx_arr = np.asarray(indexes, dtype=np.intp)
                sub = col[idx_arr]
                sub.setflags(write=False)
                out.append(sub)
            else:
                out.append([col[j] for j in indexes])
        return ColumnStore(out)

    def select(self, mask: Any) -> "ColumnStore":
        """Rows where ``mask`` is true, preserving order."""
        if is_array(mask):
            out: List[Any] = []
            idx_arr = None
            for i in range(len(self.cols)):
                col = self._column_for_take(i)
                if is_array(col):
                    sub = col[mask]
                    sub.setflags(write=False)
                    out.append(sub)
                else:
                    if idx_arr is None:
                        idx_arr = np.nonzero(mask)[0].tolist()
                    out.append([col[j] for j in idx_arr])
            return ColumnStore(out)
        return self.take([i for i, ok in enumerate(mask) if ok])

    def slice(self, start: int, stop: int) -> "ColumnStore":
        """Contiguous row range; zero-copy (a view) for array columns."""
        out: List[Any] = []
        for i in range(len(self.cols)):
            col = self._column_for_take(i)
            # Array slices are views over the parent buffer (zero-copy)
            # and inherit writeable=False, so aliasing stays read-only.
            out.append(col[start:stop])
        return ColumnStore(out)


# -- kernels ---------------------------------------------------------------

def _precision_unsafe(left: Any, right: Any) -> bool:
    """True when numpy would compare through float64 where python
    compares exactly — int64↔float casts lose precision past 2**53, so
    those comparisons stay on the per-element path."""
    kind = left.dtype.kind
    if is_array(right):
        rk = right.dtype.kind
        return (kind in "iu" and rk == "f") or (kind == "f" and rk in "iu")
    if isinstance(right, bool):
        return False
    if isinstance(right, float):
        return kind in "iu"
    if isinstance(right, int):
        return kind == "f" and abs(right) > 2 ** 53
    return False


def compare_array(fn: Callable[[Any, Any], Any], left: Any,
                  right: Any) -> Optional[Any]:
    """Apply comparison ``fn`` elementwise, returning a bool array.

    ``None`` means the array path cannot answer (cross-type comparison
    raised, numpy collapsed the comparison to a scalar, or exact python
    semantics would be lost) and the caller must fall back to the
    per-element kernel.
    """
    if _precision_unsafe(left, right):
        return None
    try:
        out = fn(left, right)
    except TypeError:
        return None
    if not is_array(out) or out.dtype != np.bool_ or out.shape != left.shape:
        return None
    return out


def distinct_codes(arr: Any) -> "tuple[List[Any], List[int]]":
    """One-pass key factorization: (distinct python values, per-row codes).

    ``codes[i]`` indexes into the distinct list; the SteM probe path hashes
    each *distinct* key once instead of once per row.
    """
    uniq, inverse = np.unique(arr, return_inverse=True)
    return uniq.tolist(), inverse.tolist()


def bisect_batch(thresholds: Sequence[Any], values: Any,
                 side: str) -> Optional[List[int]]:
    """Vectorized ``bisect``: positions of ``values`` in sorted
    ``thresholds`` (``side`` as in ``numpy.searchsorted``).

    Returns ``None`` when either side is unpromotable; cross-type
    comparisons raise ``TypeError`` exactly like python ``bisect`` does.
    """
    if np is None:
        return None
    th = thresholds if is_array(thresholds) else as_array(list(thresholds))
    if th is None:
        return None
    vals = values if is_array(values) else as_array(list(values))
    if vals is None:
        return None
    if th.dtype.kind in "OU" and vals.dtype.kind not in "OU":
        raise TypeError("'<' not supported between str thresholds and "
                        f"{vals.dtype} probe values")
    if vals.dtype.kind in "OU" and th.dtype.kind not in "OU":
        raise TypeError("'<' not supported between numeric thresholds and "
                        "str probe values")
    # int64↔float64 searchsorted casts through float and can misplace
    # huge ints; python bisect compares exactly, so stay on it.
    if (th.dtype.kind in "biu") != (vals.dtype.kind in "biu"):
        return None
    return np.searchsorted(th, vals, side=side).tolist()


# -- selection-vector helpers ----------------------------------------------
# Masks flowing through the engine are EITHER python bool lists (fallback,
# per-element kernels) or numpy bool arrays (ufunc kernels); these helpers
# are the only places that need to care which.

def mask_count(mask: Any) -> int:
    if is_array(mask):
        return int(mask.sum())
    return sum(1 for ok in mask if ok)


def mask_all(mask: Any) -> bool:
    if is_array(mask):
        return bool(mask.all())
    return all(mask)


def mask_and(a: Any, b: Any) -> Any:
    if is_array(a) and is_array(b):
        return a & b
    return [x and y for x, y in zip(mask_to_list(a), mask_to_list(b))]


def mask_or(a: Any, b: Any) -> Any:
    if is_array(a) and is_array(b):
        return a | b
    return [x or y for x, y in zip(mask_to_list(a), mask_to_list(b))]


def mask_invert(mask: Any) -> Any:
    if is_array(mask):
        return ~mask
    return [not ok for ok in mask]


def mask_to_list(mask: Any) -> List[bool]:
    if is_array(mask):
        return mask.tolist()
    return list(mask)


def mask_compress(alive: Any, mask: Any) -> Any:
    """The values of ``mask`` at positions where ``alive`` is true, in
    order — the outcome sequence a later chain stage observes."""
    if is_array(alive) and is_array(mask):
        return mask[alive]
    alive_l = mask_to_list(alive)
    return [m for m, a in zip(mask_to_list(mask), alive_l) if a]


#: Decay-weight vectors for the closed-form EWMA, keyed by (alpha, n).
#: Batch sizes repeat (the batching directive fixes them), so each
#: (alpha, n) pair is computed once; bounded by wholesale clearing.
_DECAY_CACHE: Dict[Any, Any] = {}


def _decay_weights(alpha: float, n: int) -> Any:
    key = (alpha, n)
    w = _DECAY_CACHE.get(key)
    if w is None:
        if len(_DECAY_CACHE) >= 512:
            _DECAY_CACHE.clear()
        w = (1.0 - alpha) ** np.arange(n - 1, -1, -1, dtype=np.float64)
        w.setflags(write=False)
        _DECAY_CACHE[key] = w
    return w


def ewma_update(ewma: float, alpha: float, outcomes: Any) -> float:
    """Fold a boolean outcome sequence into an EWMA.

    Closed form of the sequential update
    ``e <- e + alpha * (b - e)`` over the whole sequence:
    ``e_n = (1-a)^n e_0 + a * sum_j (1-a)^(n-1-j) b_j``.
    Used by the frozen fused-filter path so selectivity estimates — the
    thaw signal — stay live without a per-row python loop.
    """
    n = len(outcomes)
    if n == 0 or alpha <= 0.0:
        return ewma
    if is_array(outcomes):
        decay = _decay_weights(alpha, n)
        acc = float(np.dot(outcomes, decay))
        return decay[0] * (1.0 - alpha) * ewma + alpha * acc
    for b in outcomes:
        ewma += alpha * ((1.0 if b else 0.0) - ewma)
    return ewma
