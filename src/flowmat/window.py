"""Exact packet-count windowing of anonymized flow columns.

Each flow contributes up to two directed entries: (src, dst) with the
to-server count, then (dst, src) with the to-client count; zero counts are
dropped. A batch's entries are laid end to end after the open window's
packets by a cumulative sum and cut at every multiple of the window size, so
every non-final window sums to exactly the configured packet count and an
entry crossing a boundary is split between windows. The windows a batch
completes are built by one segmented sort (hypermat.build_segments) per
MAX_WINDOWS_PER_BUILD of them, and each build is handed on whole, as one
hypermat.MatrixGroup, never as an object per window. A window is nothing but
its matrix: its packet total is its values' sum (hypermat.packet_totals),
and its sequence number and creation time are the writer's. The entries of
the window still open are carried to the next batch as arrays.
A flow whose counts would span more than MAX_WINDOWS_PER_FLOW windows is
refused whole and counted, so one line cannot cost unbounded work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from flowmat.eve import FlowColumns
from flowmat.hypermat import MatrixGroup, build_segments, segment_ranges

DEFAULT_WINDOW_BITS = 17
_U64_MAX = (1 << 64) - 1

# windows built per segmented sort; bounds memory when one entry spans many
MAX_WINDOWS_PER_BUILD = 1024

# The most windows' worth of packets one direction of a flow may carry. Each
# completed window is built, encoded and archived, so one line could otherwise
# cost any amount of work: pkts_toserver = 2^64 - 1 spans ~1.4e14 windows of
# 2^17 packets, and at one-packet windows its window indices overflow int64.
# With this bound a line costs at most about 2^15 windows (seconds of work),
# and a direction of up to 2^31 packets still fits at the default window size.
MAX_WINDOWS_PER_FLOW = 1 << 14

@dataclass
class TripleBuffer:
    """The open window: its (row, col, count) array chunks."""

    rows: list[np.ndarray] = field(default_factory=list)
    cols: list[np.ndarray] = field(default_factory=list)
    vals: list[np.ndarray] = field(default_factory=list)
    packets_accumulated: int = 0

    def add(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        if len(vals):
            self.rows.append(rows)
            self.cols.append(cols)
            self.vals.append(vals)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.concatenate(self.rows or [np.empty(0, dtype=np.uint32)]),
            np.concatenate(self.cols or [np.empty(0, dtype=np.uint32)]),
            np.concatenate(self.vals or [np.empty(0, dtype=np.uint64)]),
        )


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack((a, b), axis=1).ravel()


def _cut(first, last, head, tail, window: int, k0: int, k1: int):
    """The pieces of entries that fall in windows k0..k1-1, in stream order.

    Returns (entry index, window index, packets) per piece. An entry's first
    piece skips the head packets its window held before it, its last piece
    holds tail packets, and any piece between them fills a whole window. An
    entry's windows are one segment of segment_ranges; there may be none.
    """
    lo = int(np.searchsorted(last, k0))
    hi = int(np.searchsorted(first, k1))
    lo_win = np.maximum(first[lo:hi], k0)
    counts = np.minimum(last[lo:hi], k1 - 1) - lo_win + 1
    entry = np.repeat(np.arange(lo, hi), counts)
    win = segment_ranges(lo_win, counts)
    end = np.where(win == last[entry], tail[entry], window)
    start = np.where(win == first[entry], head[entry], 0)
    return entry, win, end - start


class Windower:
    """Stateful splitter from a stream of flow-column batches to exact-size windows."""

    def __init__(self, window_packets: int = 1 << DEFAULT_WINDOW_BITS):
        # every window then sums below 2^64, so its uint64 build cannot wrap
        if not 1 <= window_packets < 1 << 64:
            raise ValueError("window_packets must be in [1, 2^64)")
        self.window_packets = window_packets
        self._max_count = min(MAX_WINDOWS_PER_FLOW * window_packets, _U64_MAX)
        self.flows_refused = 0
        self._buffer = TripleBuffer()

    def push(self, batch: FlowColumns) -> Iterator[MatrixGroup]:
        """Add a batch; yield the windows it completes, one segmented build at a time.

        A flow with either count above MAX_WINDOWS_PER_FLOW windows' worth of
        packets is refused whole and counted in flows_refused. Its two entries
        get count 0, so the mask that drops zero counts leaves no trace of it
        in any window. The batch takes effect as the generator is drained.
        """
        rows = _interleave(batch.src, batch.dst)
        cols = _interleave(batch.dst, batch.src)
        vals = _interleave(batch.toserver, batch.toclient)
        refused = (batch.toserver > self._max_count) | (batch.toclient > self._max_count)
        if refused.any():
            self.flows_refused += int(refused.sum())
            vals[np.repeat(refused, 2)] = 0
        keep = np.flatnonzero(vals)
        if len(keep) == 0:
            return
        rows, cols, vals = rows[keep], cols[keep], vals[keep]

        window = self.window_packets
        opened = self._buffer
        # Stream position of each entry's end, counted from the open window's
        # start. Counts go up to 2^64-1, so uint64 positions could wrap and
        # window indices overflow int64; unless the float estimate of the
        # last position is safely below both, use Python ints.
        fill = opened.packets_accumulated
        exact = np.uint64 if fill + vals.sum(dtype=np.float64) < 2.0**62 else object
        counts = vals.astype(exact)
        ends = np.cumsum(counts) + fill
        starts = ends - counts
        first = (starts // window).astype(np.int64)
        last = ((ends - 1) // window).astype(np.int64)
        head = (starts % window).astype(np.uint64)
        tail = ((ends - 1) % window + 1).astype(np.uint64)
        n_done = int(ends[-1] // window)

        entry, _, pieces = _cut(first, last, head, tail, window, n_done, n_done + 1)
        if n_done:
            self._buffer = TripleBuffer()
        self._buffer.add(rows[entry], cols[entry], pieces)
        self._buffer.packets_accumulated = int(ends[-1] % window)

        for k0 in range(0, n_done, MAX_WINDOWS_PER_BUILD):
            k1 = min(k0 + MAX_WINDOWS_PER_BUILD, n_done)
            entry, win, pieces = _cut(first, last, head, tail, window, k0, k1)
            segs, seg_rows, seg_cols = win - k0, rows[entry], cols[entry]
            if k0 == 0 and opened.vals:
                open_rows, open_cols, open_vals = opened.arrays()
                segs = np.concatenate((np.zeros(len(open_vals), dtype=np.int64), segs))
                seg_rows = np.concatenate((open_rows, seg_rows))
                seg_cols = np.concatenate((open_cols, seg_cols))
                pieces = np.concatenate((open_vals, pieces))
            yield build_segments(segs, seg_rows, seg_cols, pieces, k1 - k0)

    def flush(self) -> MatrixGroup | None:
        """Build and hand back the partial trailing window, if any, as a group of one; reset."""
        buf = self._buffer
        if buf.packets_accumulated == 0:
            return None
        self._buffer = TripleBuffer()
        rows, cols, vals = buf.arrays()
        return build_segments(np.zeros(len(vals), dtype=np.int64), rows, cols, vals, 1)
