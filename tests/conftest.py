import json
import random

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


def criterion_9_corpus() -> tuple[list[bytes], int, int]:
    """The 10^5-line fuzz corpus of acceptance criterion 9.

    Returns the lines, how many of them are valid IPv4 flow lines, and the
    packet total of those lines.
    """
    rnd = random.Random(404)
    corpus = []
    valid = 0
    valid_packets = 0
    for i in range(100_000):
        kind = rnd.randrange(6)
        if kind == 0:
            corpus.append(bytes(rnd.randrange(1, 256) for _ in range(rnd.randrange(0, 60))))
        elif kind == 1:
            corpus.append(b'{"event_type":"alert","signature":"x"}')
        elif kind == 2:
            corpus.append(
                b'{"event_type":"flow","src_ip":"2001:db8::1","dest_ip":"10.0.0.1",'
                b'"flow":{"pkts_toserver":1,"pkts_toclient":0}}'
            )
        elif kind == 3:
            line = (
                f'{{"event_type":"flow","src_ip":"10.0.{rnd.randrange(256)}.{rnd.randrange(256)}",'
                f'"dest_ip":"10.1.0.1","flow":{{"pkts_toserver":{rnd.randrange(1, 50)},'
                f'"pkts_toclient":0}}}}'
            ).encode()
            valid += 1
            valid_packets += json.loads(line)["flow"]["pkts_toserver"]
            corpus.append(line)
        elif kind == 4:
            corpus.append(b'{"event_type":"flow","src_ip":"10.0.0.1"')  # truncated
        else:
            corpus.append(b'{"event_type":"flow","src_ip":"10.0.0.999","dest_ip":"1.2.3.4",'
                          b'"flow":{"pkts_toserver":1,"pkts_toclient":0}}')
    return corpus, valid, valid_packets
