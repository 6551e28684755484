import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmat.eve import FlowColumns, FlowRecord
from flowmat.window import MAX_WINDOWS_PER_BUILD, MAX_WINDOWS_PER_FLOW, Windower
from tests.conftest import build, columns_from_records, to_triples, total_sum, window_matrices

U64_MAX = 2**64 - 1

flows_strategy = st.lists(
    st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 500),
        st.integers(0, 500),
    ),
    max_size=60,
)


def columns(flows) -> FlowColumns:
    return columns_from_records([FlowRecord(*f) for f in flows])


# how many windows each Windower has handed on: the next one's sequence number
_handed_on: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _numbered(w: Windower, group):
    """(matrix, meta) of each window of a group w handed on, numbered as run_ingest does."""
    pairs = window_matrices(group, _handed_on.get(w, 0))
    _handed_on[w] = _handed_on.get(w, 0) + len(pairs)
    return pairs


def drain(w: Windower, flows):
    """Push flows as one column batch; return the completed (matrix, meta) pairs."""
    return [pair for group in w.push(columns(flows)) for pair in _numbered(w, group)]


def flush(w: Windower):
    """The (matrix, meta) of the partial trailing window, or None."""
    tail = w.flush()
    return None if tail is None else _numbered(w, tail)[0]


def open_window(w: Windower) -> list[tuple[int, int, int]]:
    """Entries of the open window, in stream order."""
    rows, cols, vals = w._buffer.arrays()
    return list(zip(rows.tolist(), cols.tolist(), vals.tolist()))


class ReferenceWindower:
    """Record-at-a-time windower with Python ints: the reference for Windower."""

    def __init__(self, window: int):
        self.window = window
        self.done: list[tuple[int, list, int]] = []  # (seq, triples, packets)
        self.triples: list[tuple[int, int, int]] = []
        self.packets = 0

    def push_flow(self, src: int, dst: int, toserver: int, toclient: int) -> None:
        for row, col, remaining in ((src, dst, toserver), (dst, src, toclient)):
            while remaining > 0:
                take = min(self.window - self.packets, remaining)
                self.triples.append((row, col, take))
                self.packets += take
                remaining -= take
                if self.packets == self.window:
                    self.done.append((len(self.done), self.triples, self.packets))
                    self.triples, self.packets = [], 0

    def flush(self) -> None:
        if self.packets:
            self.done.append((len(self.done), self.triples, self.packets))
            self.triples, self.packets = [], 0


def assert_matches_reference(flows, window: int, cuts) -> None:
    """Feed flows split into batches at cuts; every window must equal the reference's."""
    ref = ReferenceWindower(window)
    for f in flows:
        ref.push_flow(*f)
    ref.flush()

    w = Windower(window)
    got = []
    bounds = [0, *sorted(cuts), len(flows)]
    for lo, hi in zip(bounds, bounds[1:]):
        got.extend(drain(w, flows[lo:hi]))
    tail = flush(w)
    if tail is not None:
        got.append(tail)

    assert len(got) == len(ref.done)
    for (matrix, meta), (seq, triples, packets) in zip(got, ref.done):
        assert (meta.seq, meta.packet_total) == (seq, packets)
        assert matrix == build(triples)


@pytest.mark.parametrize("window", [0, 2**64])
def test_window_size_out_of_range_rejected(window):
    with pytest.raises(ValueError):
        Windower(window)


def test_under_budget_accumulates():
    w = Windower(10)
    assert drain(w, [(1, 2, 4, 3)]) == []
    assert len(open_window(w)) == 2
    assert w._buffer.packets_accumulated == 7


def test_split_at_boundary():
    w = Windower(10)
    drain(w, [(1, 2, 7, 0)])
    done = drain(w, [(3, 4, 5, 0)])
    assert len(done) == 1
    matrix, meta = done[0]
    assert meta.packet_total == 10
    assert [v for _, _, v in to_triples(matrix)] == [7, 3]
    assert open_window(w) == [(3, 4, 2)]


def test_single_record_spanning_multiple_windows():
    w = Windower(10)
    done = drain(w, [(1, 2, 25, 0)])
    assert [meta.packet_total for _, meta in done] == [10, 10]
    assert [meta.seq for _, meta in done] == [0, 1]
    assert [v for _, _, v in open_window(w)] == [5]


def test_direction_order_and_reversal():
    w = Windower(100)
    drain(w, [(1, 2, 4, 3)])
    assert open_window(w) == [(1, 2, 4), (2, 1, 3)]
    matrix, _ = flush(w)
    assert to_triples(matrix) == [(1, 2, 4), (2, 1, 3)]


def test_zero_direction_elided():
    w = Windower(100)
    drain(w, [(1, 2, 5, 0), (3, 4, 0, 0)])
    assert open_window(w) == [(1, 2, 5)]
    matrix, _ = flush(w)
    assert 0 not in matrix.vals
    assert matrix.nvals == 1


def test_flush_empty_returns_none():
    assert Windower(10).flush() is None


def test_flush_after_exact_multiple():
    w = Windower(10)
    done = drain(w, [(1, 2, 10, 0), (3, 4, 10, 0)])
    assert len(done) == 2
    assert w.flush() is None


def test_stream_exactness_and_conservation(rng):
    window = 1 << 17
    w = Windower(window)
    n = 5000
    flows = list(
        zip(
            rng.integers(0, 1 << 32, size=n, dtype=np.uint64).tolist(),
            rng.integers(0, 1 << 32, size=n, dtype=np.uint64).tolist(),
            rng.integers(0, 300, size=n).tolist(),
            rng.integers(0, 50, size=n).tolist(),
        )
    )
    oracle_total = sum(ts + tc for _, _, ts, tc in flows)
    done = []
    for lo in range(0, n, 512):
        done.extend(drain(w, flows[lo : lo + 512]))
    tail = flush(w)
    assert len(done) == oracle_total // window
    assert all(meta.packet_total == window for _, meta in done)
    assert [meta.seq for _, meta in done] == list(range(len(done)))
    emitted = sum(total_sum(matrix) for matrix, _ in done)
    if tail is not None:
        assert 0 < tail[1].packet_total < window
        emitted += total_sum(tail[0])
    assert emitted == oracle_total


@given(flows_strategy, st.integers(1, 50))
@settings(max_examples=100, deadline=None)
def test_conservation_property(flows, window):
    w = Windower(window)
    done = drain(w, flows)
    tail = flush(w)
    total = sum(meta.packet_total for _, meta in done)
    if tail is not None:
        total += tail[1].packet_total
    assert total == sum(ts + tc for _, _, ts, tc in flows)
    assert all(meta.packet_total == window for _, meta in done)
    for matrix, meta in done + ([tail] if tail else []):
        assert (matrix.vals > 0).all()
        assert total_sum(matrix) == meta.packet_total


def test_buffer_build_round_trip():
    w = Windower(10)
    done = drain(w, [(1, 2, 6, 0), (1, 2, 6, 0)])
    matrix, meta = done[0]
    assert total_sum(matrix) == 10 == meta.packet_total
    assert meta.seq == 0


# --- the column windower against the record-at-a-time reference -------------

@given(flows_strategy, st.integers(1, 50), st.lists(st.integers(0, 60), max_size=8))
@settings(max_examples=100, deadline=None)
def test_matches_reference_random_streams(flows, window, cuts):
    assert_matches_reference(flows, window, [c for c in cuts if c <= len(flows)])


@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 2500),
                       st.integers(0, 2500)), max_size=6),
    st.lists(st.integers(0, 6), max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_matches_reference_window_bits_0(flows, cuts):
    # a window of one packet: every packet is its own window, and one batch
    # can complete more windows than one segmented build takes
    assert_matches_reference(flows, 1, [c for c in cuts if c <= len(flows)])


def test_window_bits_0_spans_several_builds():
    flows = [(1, 2, 2 * MAX_WINDOWS_PER_BUILD + 5, 3), (2, 3, 0, 7)]
    assert_matches_reference(flows, 1, [])


@given(
    st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
                       st.integers(0, U64_MAX), st.integers(0, U64_MAX)), max_size=8),
    st.lists(st.integers(0, 8), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_matches_reference_window_bits_63(flows, cuts):
    assert_matches_reference(flows, 1 << 63, [c for c in cuts if c <= len(flows)])


def test_window_bits_63_full_counts_do_not_wrap():
    # one batch of 24 * (2^64 - 1) packets: a uint64 running sum wraps here
    flows = [(i, i + 1, U64_MAX, U64_MAX) for i in range(12)]
    assert_matches_reference(flows, 1 << 63, [])
    assert_matches_reference(flows, 1 << 63, [3, 7])


def test_largest_window_full_counts_match_reference():
    # the largest window: each directed entry of 2^64 - 1 packets fills one
    flows = [(i, i + 1, U64_MAX, U64_MAX) for i in range(12)]
    assert_matches_reference(flows, U64_MAX, [])
    assert_matches_reference(flows, U64_MAX, [3, 7])


@pytest.mark.parametrize("window", [1, 1 << 17])
def test_flow_over_the_window_bound_is_refused_whole(window):
    limit = MAX_WINDOWS_PER_FLOW * window
    kept = [(1, 2, 3, 4), (5, 6, limit, limit)]  # at the bound: windowed
    refused = [(7, 8, 1, U64_MAX), (9, 10, limit + 1, 0)]
    w, ref = Windower(window), Windower(window)
    got = drain(w, [kept[0], refused[0], kept[1], refused[1]])
    want = drain(ref, kept)
    assert w.flows_refused == 2 and ref.flows_refused == 0
    assert [(meta.seq, meta.packet_total) for _, meta in got] == \
        [(meta.seq, meta.packet_total) for _, meta in want]
    assert all(a == b for (a, _), (b, _) in zip(got, want))
    assert open_window(w) == open_window(ref)


def test_batch_of_refused_flows_only_builds_nothing():
    w = Windower(1)
    assert drain(w, [(1, 2, U64_MAX, 0), (3, 4, 0, 2**63)]) == []
    assert w.flows_refused == 2
    assert w.flush() is None
