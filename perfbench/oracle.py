"""Plain-Python reference results for every workload.

No ``repro`` imports: expected results are computed straight from the
generated rows (:mod:`gen`), replaying the same prefix the engine saw.
Result multisets are compared as digests — a row count plus the sum of
the rows' hashes — so the engine side can fold each fetched row in as it
arrives without keeping the rows.  Both sides hash in the benchmark
process, so string hashing agrees.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Tuple

from gen import (ORDER_COLUMNS, PAYMENT_COLUMNS, JoinGen, NetGen, SelectGen,
                 SelectionSpec)

OPS = {">": operator.gt, "<": operator.lt, ">=": operator.ge,
       "<=": operator.le, "=": operator.eq}

Digest = List[int]                         # [count, sum of hashes]


def digest_add(d: Digest, values: Hashable) -> None:
    d[0] += 1
    d[1] += hash(values)


def select_expected(gen: SelectGen, n_batches: int
                    ) -> Dict[Tuple[int, int], Digest]:
    """Per (slot, generation) cursor: the digest of rows it must see.
    A query sees every batch from its submission to its cancellation."""
    specs = gen.initial_specs()
    generation = [0] * len(specs)
    by_sym: Dict[str, Dict[int, Tuple[int, int]]] = defaultdict(dict)
    for slot, (sym, lo, hi) in enumerate(specs):
        by_sym[sym][slot] = (lo, hi)
    out: Dict[Tuple[int, int], Digest] = {
        (slot, 0): [0, 0] for slot in range(len(specs))}
    churn = gen.churn()
    batches = gen.batches()
    for b in range(n_batches):
        for row in next(batches):
            sym, price, _qty = row
            for slot, (lo, hi) in by_sym[sym].items():
                if lo <= price < hi:
                    digest_add(out[slot, generation[slot]], row)
        if gen.is_churn_point(b):
            slot, (sym, lo, hi) = next(churn)
            del by_sym[specs[slot][0]][slot]
            specs[slot] = (sym, lo, hi)
            generation[slot] += 1
            by_sym[sym][slot] = (lo, hi)
            out[slot, generation[slot]] = [0, 0]
    return out


def _selection_holds(spec: SelectionSpec, columns: Tuple[str, ...],
                     row: tuple) -> bool:
    return all(OPS[op](row[columns.index(col)], value)
               for col, op, value in spec[1])


class JoinExpected:
    """Expected results of the orders/payments workloads for a prefix
    of ``n_batches`` batches."""

    def __init__(self, gen: JoinGen, n_batches: int,
                 selections: Iterable[SelectionSpec] = ()):
        thresholds = gen.thresholds()
        selections = list(selections)
        self.join: List[Digest] = [[0, 0] for _ in thresholds]
        self.selection_counts = [0] * len(selections)
        orders: Dict[int, tuple] = {}
        payments: Dict[int, List[tuple]] = defaultdict(list)
        amounts: List[int] = []
        batches = gen.batches()
        for _ in range(n_batches):
            for stream, row in next(batches):
                columns = ORDER_COLUMNS if stream == "orders" \
                    else PAYMENT_COLUMNS
                for i, spec in enumerate(selections):
                    if spec[0] == stream and \
                            _selection_holds(spec, columns, row):
                        self.selection_counts[i] += 1
                if stream == "orders":
                    orders[row[0]] = row
                    pairs = [(row, p) for p in payments[row[0]]]
                else:
                    payments[row[0]].append(row)
                    amounts.append(row[1])
                    order = orders.get(row[0])
                    pairs = [] if order is None else [(order, row)]
                for order, payment in pairs:
                    for j, threshold in enumerate(thresholds):
                        if payment[1] > threshold:
                            digest_add(self.join[j], order + payment)
        self.join_counts = [d[0] for d in self.join]
        #: per window query: [(t, AVG(amount) over timestamps
        #: t-width+1..t)] for every window whose right end the payments
        #: clock has passed (payments carry timestamps 1, 2, ...).
        self.windows: List[List[Tuple[int, float]]] = []
        for width, hop in gen.window_specs():
            fired = []
            for t in range(width, len(amounts), hop):
                fired.append((t, sum(amounts[t - width:t]) / width))
            self.windows.append(fired)


def net_expected(gen: NetGen, n_frames: int) -> Dict[int, Digest]:
    """Per filter key: the digest of rows with that key."""
    out = {k: [0, 0] for k in gen.filter_keys()}
    frames = gen.frames()
    for _ in range(n_frames):
        for row in next(frames):
            d = out.get(row[1])
            if d is not None:
                digest_add(d, row)
    return out
