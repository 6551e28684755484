import numpy as np
import pytest

from flowmat.hypermat import HyperMatrix, build_arrays, empty


def build(triples) -> HyperMatrix:
    """Plus-duplicate build from an iterable of (row, col, val) triples."""
    triples = list(triples)
    if not triples:
        return empty()
    rows = np.fromiter((t[0] for t in triples), dtype=np.uint32, count=len(triples))
    cols = np.fromiter((t[1] for t in triples), dtype=np.uint32, count=len(triples))
    vals = np.fromiter((t[2] for t in triples), dtype=np.uint64, count=len(triples))
    return build_arrays(rows, cols, vals)


def to_triples(m: HyperMatrix) -> list[tuple[int, int, int]]:
    """Sorted (row, col, val) list; build(to_triples(m)) == m."""
    if m.nvals == 0:
        return []
    rows = np.repeat(m.rows_present, np.diff(m.row_ptr).astype(np.int64))
    return list(zip(rows.tolist(), m.col_ids.tolist(), m.vals.tolist()))


def row_degrees(m: HyperMatrix) -> list[tuple[int, int]]:
    degrees = np.diff(m.row_ptr).astype(np.int64)
    return list(zip(m.rows_present.tolist(), degrees.tolist()))


def col_degrees(m: HyperMatrix) -> list[tuple[int, int]]:
    if m.nvals == 0:
        return []
    cols, counts = np.unique(m.col_ids, return_counts=True)
    return list(zip(cols.tolist(), counts.tolist()))


def random_matrix(rng: np.random.Generator, max_entries: int = 200) -> HyperMatrix:
    n = int(rng.integers(0, max_entries + 1))
    rows = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    cols = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    vals = rng.integers(1, 1 << 20, size=n, dtype=np.uint64)
    return build_arrays(rows, cols, vals)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
