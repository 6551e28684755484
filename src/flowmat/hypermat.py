"""Hypersparse (doubly-compressed) traffic matrices over a 2^32 x 2^32 space.

Storage is proportional to the number of stored entries and present rows,
never to the 4-billion-row logical dimension. Row = source address,
column = destination address. Only the operations the pipeline needs exist:
plus-duplicate build from tagged triples, the packet total and segment_ranges.

Ingest builds every window a batch completes with one segmented sort
(build_segments), which returns them as one MatrixGroup: the windows' arrays
end to end and each window's bounds in them, never an object per window.
A member the readers decode alone (archive.read_members, on decode_matrix's
path) is a HyperMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIMENSION = 1 << 32


@dataclass(frozen=True)
class MatrixMeta:
    seq: int
    packet_total: int
    created_unix_s: int


@dataclass(frozen=True)
class HyperMatrix:
    """Canonical doubly-compressed sparse matrix of shape DIMENSION x DIMENSION.

    rows_present is strictly increasing; col_ids strictly increase within
    each row (duplicates were summed at build); vals are >= 1.
    """

    rows_present: np.ndarray  # uint32, sorted unique
    row_ptr: np.ndarray       # uint64, len(rows_present)+1
    col_ids: np.ndarray       # uint32
    vals: np.ndarray          # uint64

    @property
    def nvals(self) -> int:
        return len(self.col_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HyperMatrix):
            return NotImplemented
        return (
            np.array_equal(self.rows_present, other.rows_present)
            and np.array_equal(self.row_ptr, other.row_ptr)
            and np.array_equal(self.col_ids, other.col_ids)
            and np.array_equal(self.vals, other.vals)
        )


@dataclass(frozen=True)
class MatrixGroup:
    """Canonical matrices built together, their arrays laid end to end.

    Matrix k owns rows_present[r0:r1], row_ptr[r0 + k:r1 + k + 1], col_ids[e0:e1]
    and vals[e0:e1], where r0, r1 = row_bounds[k:k + 2] and e0, e1 =
    entry_bounds[k:k + 2]. Its row_ptr slice is its own, from 0 to its end
    offset e1 - e0, so each slice is exactly the array of a HyperMatrix.
    """

    rows_present: np.ndarray  # uint32
    row_ptr: np.ndarray       # uint64, len(rows_present) + the number of matrices
    col_ids: np.ndarray       # uint32
    vals: np.ndarray          # uint64
    row_bounds: np.ndarray    # int64, one more than the number of matrices
    entry_bounds: np.ndarray  # int64, likewise

    @property
    def nbytes(self) -> int:
        """Bytes of the four arrays, as the matrices' blob sections hold them."""
        return (self.rows_present.nbytes + self.row_ptr.nbytes
                + self.col_ids.nbytes + self.vals.nbytes)


def segment_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[k], starts[k] + 1, ..., starts[k] + lengths[k] - 1, for each k in order."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


def _run_starts(keys: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Where each run of equal (segment, key) pairs starts, in pairs sorted by both."""
    new_run = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new_run[1:])
    new_run[1:] |= segs[1:] != segs[:-1]
    return np.flatnonzero(new_run)


def build_segments(
    segs: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, nseg: int
) -> MatrixGroup:
    """Plus-duplicate build of nseg matrices from one set of tagged triples.

    Triple i belongs to matrix segs[i] (0 <= segs[i] < nseg). One sort on
    (segment, packed 64-bit (row, col) key) orders every matrix at once.
    _run_starts finds its entries, whose values one reduceat sums, and then
    their rows, and one insert puts each matrix's end offset after its row
    offsets. Each matrix's values must sum below 2^64, as every window does.
    """
    if (vals == 0).any():
        raise ValueError("zero-valued triples must be dropped before build")

    keys = (rows.astype(np.uint64) << np.uint64(32)) | cols.astype(np.uint64)
    order = np.lexsort((keys, segs))
    segs = segs[order]
    keys = keys[order]
    sorted_vals = vals.astype(np.uint64)[order]

    starts = _run_starts(keys, segs)
    summed = np.add.reduceat(sorted_vals, starts)
    entry_segs = segs[starts]
    entry_rows = (keys[starts] >> np.uint64(32)).astype(np.uint32)
    col_ids = (keys[starts] & np.uint64(0xFFFFFFFF)).astype(np.uint32)

    row_starts = _run_starts(entry_rows, entry_segs)
    row_segs = entry_segs[row_starts]

    bounds = np.arange(nseg + 1)
    entry_bounds = np.searchsorted(entry_segs, bounds)
    row_bounds = np.searchsorted(row_segs, bounds)
    # each row's offset within its matrix, then each matrix's end offset after its rows
    offsets = (row_starts - entry_bounds[row_segs]).astype(np.uint64)
    row_ptr = np.insert(offsets, row_bounds[1:], np.diff(entry_bounds))
    return MatrixGroup(entry_rows[row_starts], row_ptr, col_ids, summed,
                       row_bounds, entry_bounds)


def total_sum(m: HyperMatrix) -> int:
    return int(m.vals.sum(dtype=np.uint64))
