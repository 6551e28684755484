import itertools
import json
import os
import random

import numpy as np
import pytest

from flowmat.archive import (
    ContainerError, IntegrityError, decode_matrix, encode_matrix, iter_archive,
)
from flowmat.eve import FlowColumns, FlowRecord
from flowmat.flowgen import GenConfig, generate
from flowmat.hypermat import HyperMatrix, build_arrays, empty, total_sum
from flowmat.pipeline import run_ingest
from flowmat.stats import aggregate_stats, matrix_stats

# about one window of 2^17 packets per two flows, of 1-16 entries each
ELEPHANT_INPUT = GenConfig(n_flows=1_000, geometric_mean=65536.0, split=0.5, seed=1)
# distinct uniform addresses at 100 packets per flow: ~330 entries per 2^15-packet window
UNIFORM_INPUT = GenConfig(n_flows=4_000, seed=1)


def columns_from_records(records: list[FlowRecord]) -> FlowColumns:
    """One column batch holding the given records, in order."""
    flat = itertools.chain.from_iterable(records)
    table = np.fromiter(flat, dtype=np.uint64, count=4 * len(records)).reshape(-1, 4)
    return FlowColumns(
        table[:, 0].astype(np.uint32),
        table[:, 1].astype(np.uint32),
        table[:, 2],
        table[:, 3],
    )


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


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children at all
    if pid:
        pytest.fail(f"test left child process {pid} unreaped (wait status {status})")
    pytest.fail("test left a child process running")


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


@pytest.fixture(scope="session")
def shaped_tars(tmp_path_factory) -> dict[str, list]:
    """Seeded TARs, in sequence order, of two member shapes, built once.

    "elephant": 489 members of 1-15 entries, 64 per TAR, all decoded in groups.
    "uniform": 13 members, 4 per TAR; all but the partial last window hold more
    entries than GROUP_MEMBER_ENTRIES and are decoded alone.
    """
    tars = {}
    for shape, cfg, window_bits, per_tar in [
        ("elephant", ELEPHANT_INPUT, 17, 64), ("uniform", UNIFORM_INPUT, 15, 4),
    ]:
        out = tmp_path_factory.mktemp(shape)
        run_ingest(generate(cfg), None, out, window_packets=1 << window_bits, per_tar=per_tar)
        tars[shape] = sorted(out.glob("*.tar"), key=lambda p: int(p.stem.split("_")[1]))
    return tars


def per_member_stats(path) -> list[dict]:
    """archive_stats as one decode_matrix and matrix_stats per member: the oracle."""
    records, good = [], []
    try:
        for name, blob in iter_archive(path):
            try:
                m, meta = decode_matrix(blob)
            except IntegrityError as exc:
                records.append({"member": name, "error": str(exc)})
                continue
            s = matrix_stats(m)
            rec = {"member": name, "seq": meta.seq, **s.as_dict()}
            if s.packet_total != meta.packet_total:
                rec["error"] = (
                    f"packet_total mismatch: stats {s.packet_total}, meta {meta.packet_total}"
                )
            records.append(rec)
            good.append(s)
    except ContainerError as exc:
        records.append({"member": f"byte {exc.offset}", "error": str(exc)})
    records.append({"aggregate": True, "members": len(good), **aggregate_stats(good).as_dict()})
    return records


def per_member_verify(path) -> list[str]:
    """verify_archive as one decode_matrix and encode_matrix per member: the oracle."""
    failures = []
    try:
        for name, blob in iter_archive(path):
            try:
                matrix, meta = decode_matrix(blob)
            except IntegrityError as exc:
                failures.append(f"{name}: {exc}")
                continue
            if encode_matrix(matrix, meta) != blob:
                failures.append(f"{name}: re-encode is not bit-identical")
                continue
            if total_sum(matrix) != meta.packet_total:
                failures.append(
                    f"{name}: packet_total {meta.packet_total} != matrix sum {total_sum(matrix)}"
                )
    except ContainerError as exc:
        failures.append(str(exc))
    return failures
