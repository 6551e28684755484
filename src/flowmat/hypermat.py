"""Hypersparse (doubly-compressed) traffic matrices over a 2^32 x 2^32 space.

Storage is proportional to the number of stored entries and present rows,
never to the 4-billion-row logical dimension. Row = source address,
column = destination address. Only the operations the pipeline needs exist:
plus-duplicate build from tagged triples, packet_totals and segment_ranges.

MatrixGroup is the one matrix type: matrices' arrays end to end and each
matrix's bounds in them, never an object per matrix. Ingest builds every
window a batch completes with one segmented sort (build_segments) into one
group; the readers decode a member alone (archive.decode_matrix) into a
group of one, and a run of small members into one group.
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
class MatrixGroup:
    """Canonical doubly-compressed sparse matrices of shape DIMENSION x DIMENSION,
    their arrays laid end to end.

    Matrix k owns rows_present[r0:r1], row_ptr[r0 + k:r1 + k + 1], col_ids[e0:e1]
    and vals[e0:e1], where r0, r1 = row_bounds[k:k + 2] and e0, e1 =
    entry_bounds[k:k + 2]. Its row_ptr slice is its own, from 0 to its end
    offset e1 - e0. In each matrix rows_present is strictly increasing,
    col_ids strictly increase within each row (duplicates were summed at
    build), and vals are >= 1.
    """

    rows_present: np.ndarray  # uint32
    row_ptr: np.ndarray       # uint64, len(rows_present) + the number of matrices
    col_ids: np.ndarray       # uint32
    vals: np.ndarray          # uint64
    row_bounds: np.ndarray    # int64, one more than the number of matrices
    entry_bounds: np.ndarray  # int64, likewise

    @property
    def nvals(self) -> int:
        return len(self.col_ids)

    @property
    def nbytes(self) -> int:
        """Bytes of the four arrays, as the matrices' blob sections hold them."""
        return (self.rows_present.nbytes + self.row_ptr.nbytes
                + self.col_ids.nbytes + self.vals.nbytes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixGroup):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


def packet_totals(group: MatrixGroup) -> list[int]:
    """Each matrix's sum of values modulo 2^64, in order."""
    if len(group.entry_bounds) == 2:  # one matrix: all of vals, summed without a copy
        return [int(group.vals.sum(dtype=np.uint64))]
    prefix = np.zeros(len(group.vals) + 1, dtype=np.uint64)
    np.cumsum(group.vals, out=prefix[1:])  # wraps modulo 2^64, so differences do too
    return (prefix[group.entry_bounds[1:]] - prefix[group.entry_bounds[:-1]]).tolist()


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

    Triple i belongs to matrix segs[i] (0 <= segs[i] < nseg). The triples
    are sorted by packed 64-bit (row, col) key, then stably by segment;
    the order of equal keys does not change their sum. The segment sort
    takes the segments in the smallest unsigned type that holds them, which
    numpy sorts by radix. _run_starts finds the entries, whose values one
    reduceat sums, and then their rows, and one insert puts each matrix's
    end offset after its row offsets. Each matrix's values must sum below
    2^64, as every window does.
    """
    if (vals == 0).any():
        raise ValueError("zero-valued triples must be dropped before build")

    keys = (rows.astype(np.uint64) << np.uint64(32)) | cols.astype(np.uint64)
    order = np.argsort(keys)
    if nseg > 1:
        seg_type = np.min_scalar_type(nseg - 1)
        order = order[np.argsort(segs[order].astype(seg_type), kind="stable")]
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
