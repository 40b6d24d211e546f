"""Seeded input generators for the four benchmark workloads.

Plain Python with no ``repro`` imports: the engine only ever sees the
rows and query texts produced here.  Every generator takes the seed and
is deterministic, and rows are produced lazily batch by batch, so the
generator holds no more than one batch (plus the join's pending
payments) and does not hide engine memory.  The reference oracle
(:mod:`oracle`) replays the same generators to compute expected results.
"""

from __future__ import annotations

import heapq
import random
from itertools import accumulate
from typing import Iterator, List, Tuple

# -- cacq-select ---------------------------------------------------------

N_SYMS = 64
SYMS = [f"S{i}" for i in range(N_SYMS)]
#: zipf(1) over the symbols, for both row keys and query keys, so hot
#: symbols carry both more rows and more standing queries.
SYM_CUM = list(accumulate(1.0 / (i + 1) for i in range(N_SYMS)))
QUOTE_COLUMNS = ("sym", "price", "qty")
#: rows per ``push_rows`` batch (cacq-select) and per event batch (the
#: join workloads).
BATCH_ROWS = 256
#: cacq-select replaces one standing query after every second batch.
CHURN_EVERY = 2

SelectSpec = Tuple[str, int, int]          # (sym, lo, hi): lo <= price < hi


def select_sql(spec: SelectSpec) -> str:
    sym, lo, hi = spec
    return (f"SELECT * FROM quotes WHERE sym = '{sym}' "
            f"AND price >= {lo} AND price < {hi}")


def stratified_choices(items: List[str], cum_weights: List[float],
                       n: int) -> List[str]:
    """``n`` items in proportion to their weights (largest remainder)."""
    total = cum_weights[-1]
    weights = [b - a for a, b in zip([0.0] + cum_weights, cum_weights)]
    shares = [w * n / total for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(len(items)),
                          key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    return [item for item, c in zip(items, counts) for _ in range(c)]


class SelectGen:
    """Zipf-keyed ``quotes`` rows plus a churning set of ``queries``
    standing range-plus-equality selections (one query slot replaced
    every ``CHURN_EVERY`` batches)."""

    def __init__(self, seed: int, queries: int):
        self.seed = seed
        self.queries = queries

    def _spec(self, rng: random.Random) -> SelectSpec:
        sym = rng.choices(SYMS, cum_weights=SYM_CUM)[0]
        lo = rng.randrange(0, 900)
        return (sym, lo, lo + rng.randrange(50, 200))

    def initial_specs(self) -> List[SelectSpec]:
        """Stratified rather than sampled, so the work a row costs is
        nearly the same for every seed: each symbol gets its zipf share
        of the queries, and range starts and widths are spread evenly;
        the seed only decides which query gets which."""
        rng = random.Random(f"select-queries/{self.seed}")
        n = self.queries
        syms = stratified_choices(SYMS, SYM_CUM, n)
        los = [int((i + rng.random()) * 900 / n) for i in range(n)]
        widths = [50 + int((i + rng.random()) * 150 / n) for i in range(n)]
        rng.shuffle(syms)
        rng.shuffle(los)
        rng.shuffle(widths)
        return [(s, lo, lo + w) for s, lo, w in zip(syms, los, widths)]

    def churn(self) -> Iterator[Tuple[int, SelectSpec]]:
        """(slot, replacement spec) for each churn point, in order."""
        rng = random.Random(f"select-churn/{self.seed}")
        while True:
            yield rng.randrange(self.queries), self._spec(rng)

    def is_churn_point(self, batch_no: int) -> bool:
        """Churn happens after batch ``batch_no`` (0-based)."""
        return (batch_no + 1) % CHURN_EVERY == 0

    def batches(self) -> Iterator[List[Tuple[str, int, int]]]:
        """Every batch carries each symbol's zipf share of its rows (in
        a seeded order), so batches cost about the same and the latency
        tail shows the system, not the luck of the draw."""
        rng = random.Random(f"select-rows/{self.seed}")
        shares = stratified_choices(SYMS, SYM_CUM, BATCH_ROWS)
        while True:
            syms = shares[:]
            rng.shuffle(syms)
            yield [(s, rng.randrange(1000), rng.randrange(100))
                   for s in syms]


# -- cacq-join-window and flux-join ------------------------------------------

ORDER_COLUMNS = ("oid", "cust", "total")
PAYMENT_COLUMNS = ("oid", "amount", "method")
METHODS = ("card", "cash", "wire")
WINDOW_HORIZON = 10 ** 9
WINDOW_WIDTHS = (128, 256, 512, 1024)
#: join queries (one per ``amount`` band) and sliding-window AVG queries.
JOINS = 8
WINDOWS = 4
#: a payment arrives 0..MAX_LAG order-arrivals after its order.
MAX_LAG = 300

Event = Tuple[str, tuple]                  # ("orders" | "payments", row)


def join_sql(threshold: int) -> str:
    return ("SELECT * FROM orders, payments "
            "WHERE orders.oid = payments.oid "
            f"AND payments.amount > {threshold}")


def window_sql(width: int, hop: int) -> str:
    return (f"SELECT AVG(amount) FROM payments "
            f"for (t = {width}; t <= {WINDOW_HORIZON}; t += {hop}) "
            f"{{ WindowIs(payments, t - {width - 1}, t); }}")


SelectionSpec = Tuple[str, Tuple[Tuple[str, str, object], ...]]


def selection_specs(seed: int) -> List[SelectionSpec]:
    """The flux-join workload's four selections beside the join:
    (stream, ((column, op, value), ...)) conjunctions."""
    rng = random.Random(f"join-selections/{seed}")
    return [
        ("orders", (("total", ">", rng.randrange(800, 950)),)),
        ("orders", (("cust", "<", rng.randrange(20, 80)),)),
        ("payments", (("method", "=", "wire"),
                      ("amount", ">", rng.randrange(500, 900)))),
        ("payments", (("amount", "<", rng.randrange(20, 80)),)),
    ]


def selection_sql(spec: SelectionSpec) -> str:
    stream, conds = spec
    where = " AND ".join(f"{col} {op} {value!r}" for col, op, value in conds)
    return f"SELECT * FROM {stream} WHERE {where}"


class JoinGen:
    """An ``orders`` stream and a ``payments`` stream keyed by ``oid``.

    Each order gets one payment, and a fifth of orders a second one;
    every payment arrives 0..``MAX_LAG`` order-arrivals after its order.
    Batches are ``BATCH_ROWS`` consecutive events of the merged sequence.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def thresholds(self) -> List[int]:
        """One ``amount`` threshold in each of ``JOINS`` equal bands, so
        the join's selectivity mix is the same for every seed."""
        rng = random.Random(f"join-thresholds/{self.seed}")
        band = 800 // JOINS
        return [j * band + rng.randrange(band) for j in range(JOINS)]

    def window_specs(self) -> List[Tuple[int, int]]:
        """(width, hop) per sliding-window AVG query: every width of
        ``WINDOW_WIDTHS`` (cycled), each hopping a quarter of its width,
        so every window query scans four rows per arriving payment."""
        rng = random.Random(f"join-windows/{self.seed}")
        widths = [WINDOW_WIDTHS[i % len(WINDOW_WIDTHS)]
                  for i in range(WINDOWS)]
        rng.shuffle(widths)
        return [(w, w // 4) for w in widths]

    def events(self) -> Iterator[Event]:
        rng = random.Random(f"join-rows/{self.seed}")
        pending: List[Tuple[int, int, tuple]] = []
        orders = 0
        tie = 0
        while True:
            if pending and pending[0][0] <= orders:
                yield "payments", heapq.heappop(pending)[2]
                continue
            oid = orders
            orders += 1
            yield "orders", (oid, rng.randrange(1000), rng.randrange(1000))
            for _ in range(2 if rng.random() < 0.2 else 1):
                payment = (oid, rng.randrange(1, 1001), rng.choice(METHODS))
                tie += 1
                heapq.heappush(pending, (orders + rng.randrange(
                    MAX_LAG + 1), tie, payment))

    def batches(self) -> Iterator[List[Event]]:
        events = self.events()
        while True:
            yield [next(events) for _ in range(BATCH_ROWS)]


# -- net-stream ------------------------------------------------------------

TICK_COLUMNS = ("seq", "key", "val")
N_KEYS = 16
#: rows per PUSH frame, and streaming equality cursors (half the keys).
FRAME_ROWS = 64
CURSORS = 8


class NetGen:
    """``ticks`` rows for the open-loop wire workload: a global sequence
    number (so the consumer can find each row's scheduled send time), a
    uniform key and a payload value; ``CURSORS`` equality filters cover
    half of the key space."""

    def __init__(self, seed: int):
        self.seed = seed

    def filter_keys(self) -> List[int]:
        rng = random.Random(f"net-keys/{self.seed}")
        return sorted(rng.sample(range(N_KEYS), CURSORS))

    def frames(self) -> Iterator[List[Tuple[int, int, int]]]:
        rng = random.Random(f"net-rows/{self.seed}")
        seq = 0
        n = FRAME_ROWS
        while True:
            yield [(seq + i, rng.randrange(N_KEYS), rng.randrange(10 ** 6))
                   for i in range(n)]
            seq += n
