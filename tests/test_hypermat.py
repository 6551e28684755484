import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmat.hypermat import MatrixMeta, build_segments, total_sum
from tests.conftest import build, col_degrees, encode_one, matrices, row_degrees, to_triples

triples_strategy = st.lists(
    st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(1, 2**32),
    ),
    max_size=60,
)

small_triples_strategy = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(1, 100)),
    max_size=80,
)


def test_empty_build():
    m = build([])
    assert m.nvals == 0
    assert len(m.rows_present) == 0
    assert list(m.row_ptr) == [0]
    assert total_sum(m) == 0
    arrays = (m.rows_present, m.row_ptr, m.col_ids, m.vals)
    assert [a.dtype for a in arrays] == [np.uint32, np.uint64, np.uint32, np.uint64]


def test_duplicate_summation_by_hand():
    m = build([(1, 2, 5), (1, 2, 3), (0, 9, 1)])
    assert m.rows_present.tolist() == [0, 1]
    assert to_triples(m) == [(0, 9, 1), (1, 2, 8)]
    assert m.nvals == 2
    assert total_sum(m) == 9


def test_dimensions_fixed():
    blob = encode_one(build([(0, 0, 1)]), MatrixMeta(seq=0, packet_total=1, created_unix_s=0))
    nrows, ncols = struct.unpack_from("<QQ", blob, 8)  # after magic and version
    assert nrows == ncols == 2**32


def test_zero_valued_triples_rejected():
    with pytest.raises(ValueError):
        build([(1, 2, 0)])


def test_conservation_large_random(rng):
    n = 1 << 17
    rows = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    cols = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    vals = rng.integers(1, 1000, size=n, dtype=np.uint64)
    oracle = sum(int(v) for v in vals)  # plain 64-bit accumulation over raw list
    (m,) = matrices(build_segments(np.zeros(n, np.int64), rows, cols, vals, 1))
    assert total_sum(m) == oracle


def test_canonical_invariants(rng):
    n = 5000
    rows = rng.integers(0, 50, size=n, dtype=np.uint64).astype(np.uint32)
    cols = rng.integers(0, 50, size=n, dtype=np.uint64).astype(np.uint32)
    vals = rng.integers(1, 10, size=n, dtype=np.uint64)
    (m,) = matrices(build_segments(np.zeros(n, np.int64), rows, cols, vals, 1))
    assert (np.diff(m.rows_present.astype(np.int64)) > 0).all()
    assert m.row_ptr[0] == 0 and m.row_ptr[-1] == m.nvals
    assert (np.diff(m.row_ptr.astype(np.int64)) >= 0).all()
    for i in range(len(m.rows_present)):
        row_cols = m.col_ids[int(m.row_ptr[i]) : int(m.row_ptr[i + 1])].astype(np.int64)
        assert (np.diff(row_cols) > 0).all()
    assert (m.vals >= 1).all()


@given(small_triples_strategy)
@settings(max_examples=100, deadline=None)
def test_dense_oracle_equivalence(triples):
    dense = np.zeros((16, 16), dtype=np.uint64)
    for r, c, v in triples:
        dense[r, c] += v
    m = build(triples)
    got = np.zeros((16, 16), dtype=np.uint64)
    for r, c, v in to_triples(m):
        got[r, c] = v
    assert np.array_equal(dense, got)


@given(triples_strategy, st.randoms())
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(triples, rand):
    shuffled = list(triples)
    rand.shuffle(shuffled)
    assert build(shuffled) == build(triples)


@given(triples_strategy)
@settings(max_examples=60, deadline=None)
def test_round_trip_fixed_point(triples):
    m = build(triples)
    assert build(to_triples(m)) == m
    assert total_sum(m) == sum(v for _, _, v in triples)


def test_degrees_by_hand():
    m = build([(1, 2, 5), (1, 3, 5), (7, 2, 1)])
    assert row_degrees(m) == [(1, 2), (7, 1)]
    assert col_degrees(m) == [(2, 2), (3, 1)]
    assert row_degrees(build([])) == []
    assert col_degrees(build([])) == []


def test_degrees_against_dict_oracle(rng):
    n = 3000
    triples = list(
        zip(
            rng.integers(0, 40, size=n).tolist(),
            rng.integers(0, 40, size=n).tolist(),
            rng.integers(1, 5, size=n).tolist(),
        )
    )
    out_oracle: dict[int, set] = {}
    in_oracle: dict[int, set] = {}
    for r, c, _ in triples:
        out_oracle.setdefault(r, set()).add(c)
        in_oracle.setdefault(c, set()).add(r)
    m = build(triples)
    assert row_degrees(m) == sorted((r, len(s)) for r, s in out_oracle.items())
    assert col_degrees(m) == sorted((c, len(s)) for c, s in in_oracle.items())


def test_hypersparse_footprint(rng):
    # memory scales with entries + rows, never with the 2^32 dimension
    n = 10_000
    rows = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    cols = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    vals = np.ones(n, dtype=np.uint64)
    (m,) = matrices(build_segments(np.zeros(n, np.int64), rows, cols, vals, 1))
    footprint = sum(
        arr.nbytes for arr in (m.rows_present, m.row_ptr, m.col_ids, m.vals)
    ) + sys.getsizeof(m)
    # 24 bytes/entry + 12 bytes/row of array payload, far below the dimension
    assert footprint < 64 * n + 4096


@pytest.mark.parametrize("nseg", [1, 3, 17])
def test_segmented_build_equals_each_segment_built_alone(rng, nseg):
    n = 2000
    segs = np.sort(rng.integers(0, nseg, size=n))
    rows = rng.integers(0, 40, size=n, dtype=np.uint64).astype(np.uint32)
    cols = rng.integers(0, 40, size=n, dtype=np.uint64).astype(np.uint32)
    vals = rng.integers(1, 1 << 20, size=n, dtype=np.uint64)
    order = rng.permutation(n)  # input order must not matter
    built = matrices(build_segments(segs[order], rows[order], cols[order], vals[order], nseg + 1))
    assert len(built) == nseg + 1
    for s, matrix in enumerate(built):
        mask = segs == s
        alone = np.zeros(int(mask.sum()), np.int64)
        assert [matrix] == matrices(build_segments(alone, rows[mask], cols[mask], vals[mask], 1))
    assert built[nseg].nvals == 0  # a segment with no triples is the empty matrix
