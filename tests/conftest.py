import itertools
import json
import os
import random
import struct
import zlib

import numpy as np
import pytest

from flowmat import eve, lz4block, shard
from flowmat.archive import (
    _HEADER, _SECTIONS, MAGIC, ArchiveWriter, ContainerError, IntegrityError, decode_matrix,
    encode_group, iter_archive,
)
from flowmat.eve import FlowColumns, FlowRecord
from flowmat.flowgen import GenConfig, generate
from flowmat.hypermat import DIMENSION, MatrixGroup, MatrixMeta, build_segments, packet_totals
from flowmat.pipeline import run_ingest
from flowmat.stats import aggregate_stats, matrix_stats

# about one window of 2^17 packets per two flows, of 1-16 entries each
ELEPHANT_INPUT = GenConfig(n_flows=1_000, geometric_mean=65536.0, split=0.5, seed=1)
# distinct uniform addresses at 100 packets per flow: ~330 entries per 2^15-packet window
UNIFORM_INPUT = GenConfig(n_flows=4_000, seed=1)


VERSION = 1
_SECTION_PREFIX = struct.Struct("<QQ")


def encode_v1(m: MatrixGroup, meta: MatrixMeta) -> bytes:
    """The version 1 blob of m: each section its own LZ4 block, no checksum.

    This is the writer of version 1 as it was, kept so that the readers'
    version 1 path stays tested on blobs of every shape.
    """
    parts = [
        _HEADER.pack(
            MAGIC,
            VERSION,
            DIMENSION,
            DIMENSION,
            m.nvals,
            len(m.rows_present),
            meta.seq,
            meta.packet_total,
            meta.created_unix_s,
        )
    ]
    for name, dtype in _SECTIONS:
        raw = getattr(m, name).astype(dtype, copy=False).tobytes()
        packed = lz4block.compress(raw)
        parts.append(_SECTION_PREFIX.pack(len(raw), len(packed)))
        parts.append(packed)
    return b"".join(parts)


def encode_v2(m: MatrixGroup, meta: MatrixMeta) -> bytes:
    """The version 2 blob of m, written from its layout alone, one matrix at a time.

    A reference for the grouped encoder, encode_group.
    """
    raw = b"".join(getattr(m, name).astype(dtype, copy=False).tobytes()
                   for name, dtype in _SECTIONS)
    block = lz4block.compress(raw)
    head = _HEADER.pack(MAGIC, 2, DIMENSION, DIMENSION, m.nvals, len(m.rows_present), meta.seq,
                        meta.packet_total, meta.created_unix_s)
    head += struct.pack("<QQ", len(raw), len(block))
    crc = zlib.crc32(block, zlib.crc32(head))
    return head + struct.pack("<I", crc) + block


def encode_one(m: MatrixGroup, meta: MatrixMeta) -> bytes:
    """The blob encode_group writes for a group of one."""
    return encode_group(m, meta.seq, [meta.packet_total], meta.created_unix_s)[0]


def blob_version(blob: bytes) -> int:
    return int.from_bytes(blob[4:8], "little")


def with_crc(blob: bytes) -> bytes:
    """A version 2 blob with its CRC32 made to match its other bytes."""
    crc = zlib.crc32(blob[84:], zlib.crc32(blob[:80]))
    return blob[:80] + crc.to_bytes(4, "little") + blob[84:]


def rewrite_as_v1(path, out_dir):
    """A copy of the TAR at path in out_dir, every member re-encoded as version 1."""
    writer = ArchiveWriter(out_dir, per_tar=len(list(iter_archive(path))))
    for _, blob in iter_archive(path):
        matrix, meta = decode_matrix(blob)
        written = writer.extend([encode_v1(matrix, meta)], meta.seq, meta.created_unix_s)
    return written[0]


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


def one_matrix(rows_present, row_ptr, col_ids, vals) -> MatrixGroup:
    """The group of one matrix of these arrays."""
    return MatrixGroup(rows_present, row_ptr, col_ids, vals,
                       np.array([0, len(rows_present)]), np.array([0, len(col_ids)]))


def total_sum(m: MatrixGroup) -> int:
    """The packet total of a group of one."""
    (total,) = packet_totals(m)
    return total


def build(triples) -> MatrixGroup:
    """Plus-duplicate build of one matrix from an iterable of (row, col, val) triples."""
    triples = list(triples)
    rows = np.fromiter((t[0] for t in triples), dtype=np.uint32, count=len(triples))
    cols = np.fromiter((t[1] for t in triples), dtype=np.uint32, count=len(triples))
    vals = np.fromiter((t[2] for t in triples), dtype=np.uint64, count=len(triples))
    return build_segments(np.zeros(len(triples), np.int64), rows, cols, vals, 1)


def matrices(group: MatrixGroup) -> list[MatrixGroup]:
    """Each matrix of a group as a group of one, sliced out of its arrays."""
    rb, eb = group.row_bounds.tolist(), group.entry_bounds.tolist()
    return [
        one_matrix(group.rows_present[r0:r1], group.row_ptr[r0 + k:r1 + k + 1],
                   group.col_ids[e0:e1], group.vals[e0:e1])
        for k, (r0, r1, e0, e1) in enumerate(zip(rb, rb[1:], eb, eb[1:]))
    ]


def window_matrices(group: MatrixGroup, first_seq: int) -> list[tuple[MatrixGroup, MatrixMeta]]:
    """(matrix, meta) of each window of a group Windower.push yields or flush returns,
    numbered from first_seq as run_ingest numbers them, with creation time 0."""
    return [
        (m, MatrixMeta(first_seq + k, total, 0))
        for k, (m, total) in enumerate(zip(matrices(group), packet_totals(group), strict=True))
    ]


def to_triples(m: MatrixGroup) -> list[tuple[int, int, int]]:
    """Sorted (row, col, val) list; build(to_triples(m)) == m."""
    if m.nvals == 0:
        return []
    rows = np.repeat(m.rows_present, np.diff(m.row_ptr).astype(np.int64))
    return list(zip(rows.tolist(), m.col_ids.tolist(), m.vals.tolist()))


def row_degrees(m: MatrixGroup) -> list[tuple[int, int]]:
    degrees = np.diff(m.row_ptr).astype(np.int64)
    return list(zip(m.rows_present.tolist(), degrees.tolist()))


def col_degrees(m: MatrixGroup) -> list[tuple[int, int]]:
    if m.nvals == 0:
        return []
    cols, counts = np.unique(m.col_ids, return_counts=True)
    return list(zip(cols.tolist(), counts.tolist()))


def random_matrix(rng: np.random.Generator, max_entries: int = 200) -> MatrixGroup:
    n = int(rng.integers(0, max_entries + 1))
    rows = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    cols = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    vals = rng.integers(1, 1 << 20, size=n, dtype=np.uint64)
    return build_segments(np.zeros(n, np.int64), rows, cols, vals, 1)


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


@pytest.fixture(autouse=True)
def empty_shape_cache(monkeypatch):
    """Each test starts with an empty shape cache, so what one test learns never reaches another."""
    monkeypatch.setattr(eve, "_SHAPES", eve._ShapeCache())


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


def suricata_lines(n: int, seed: int) -> list[bytes]:
    """n seeded lines shaped as a Suricata sensor writes them.

    Half are IPv4 flow events and a tenth IPv6 ones; the rest are TLS events
    with a random ja3 hash, HTTP events whose URLs escape "/" as "\\/", DNS
    queries and alerts, and one line in a hundred is a flow event cut short.
    """
    rnd = random.Random(seed)

    def ts() -> str:
        return (f"2024-09-18T{rnd.randrange(24):02d}:{rnd.randrange(60):02d}:"
                f"{rnd.randrange(60):02d}.{rnd.randrange(10**6):06d}+0000")

    def ipv4() -> str:
        return ".".join(str(rnd.randrange(256)) for _ in range(4))

    def ipv6() -> str:
        return "2001:db8:%x:%x::%x" % (rnd.randrange(1 << 16), rnd.randrange(1 << 16),
                                       rnd.randrange(1 << 16))

    def head(event: str, src: str, dest: str, port: int) -> str:
        return (f'{{"timestamp":"{ts()}","flow_id":{rnd.randrange(1 << 50)},"in_iface":"ens1f0",'
                f'"event_type":"{event}","src_ip":"{src}","src_port":{rnd.randrange(1024, 65536)},'
                f'"dest_ip":"{dest}","dest_port":{port},"proto":"TCP"')

    def flow(src: str, dest: str) -> str:
        toserver, toclient = rnd.randrange(1, 100), rnd.randrange(100)
        return (head("flow", src, dest, rnd.choice([22, 80, 443])) +
                f',"app_proto":"{rnd.choice(["tls", "http", "ssh", "failed"])}",'
                f'"flow":{{"pkts_toserver":{toserver},"pkts_toclient":{toclient},'
                f'"bytes_toserver":{toserver * 90},"bytes_toclient":{toclient * 700},'
                f'"start":"{ts()}","end":"{ts()}","age":{rnd.randrange(600)},"state":"closed",'
                f'"reason":"timeout","alerted":false}},"tcp":{{"tcp_flags":"1b","syn":true,'
                f'"fin":true,"state":"closed"}},"host":"sensor-01"}}')

    others = [
        lambda: (head("tls", ipv4(), ipv4(), 443) +
                 f',"tls":{{"subject":"CN=api{rnd.randrange(1000)}.example.com",'
                 f'"issuerdn":"C=US, O=Example CA","sni":"api.example.com","version":"TLS 1.3",'
                 f'"ja3":{{"hash":"{rnd.randrange(1 << 128):032x}"}}}}}}'),
        lambda: (head("http", ipv4(), ipv4(), 80) +
                 f',"http":{{"hostname":"www.example.org",'
                 f'"url":"\\/static\\/app.{rnd.randrange(1000)}.js","http_method":"GET",'
                 f'"protocol":"HTTP\\/1.1","status":200,"length":{rnd.randrange(10**5)}}}}}'),
        lambda: (head("dns", ipv4(), ipv4(), 53) +
                 f',"dns":{{"type":"query","id":{rnd.randrange(1 << 16)},'
                 f'"rrname":"cdn{rnd.randrange(1000)}.example.com","rrtype":"A"}}}}'),
        lambda: (head("alert", ipv4(), ipv4(), 3306) +
                 f',"alert":{{"action":"allowed","signature_id":{rnd.randrange(2 * 10**6, 3 * 10**6)},'
                 f'"signature":"ET POLICY inbound to mySQL port 3306 \\/ \\"probe\\"",'
                 f'"severity":2}}}}'),
    ]
    lines = []
    for _ in range(n):
        kind = rnd.random()
        if kind < 0.50:
            line = flow(ipv4(), ipv4())
        elif kind < 0.60:
            line = flow(ipv6(), ipv6())
        elif kind < 0.99:
            line = rnd.choice(others)()
        else:  # a strict prefix of a JSON object never parses
            full = flow(ipv4(), ipv4())
            line = full[:rnd.randrange(1, len(full))]
        lines.append(line.encode())
    return lines


def assert_stream_blocks(lines: list[bytes], chunks) -> None:
    """The chunks shard.parse_stream gave for lines came from blocks cut by its rule.

    A chunk's block is as many lines as its counters consumed. Each block
    ends at shard.STREAM_BLOCK_LINES lines or at the first line that takes
    it to shard.CHUNK_BYTES, whichever comes first; the last may end sooner.
    """
    sizes = [chunk_counters.lines_consumed for _, chunk_counters, _ in chunks]
    assert all(sizes) and sum(sizes) == len(lines)
    ends = list(itertools.accumulate(sizes))
    for k, (size, end) in enumerate(zip(sizes, ends)):
        block = lines[end - size:end]
        held = sum(map(len, block))
        assert size <= shard.STREAM_BLOCK_LINES
        assert held - len(block[-1]) < shard.CHUNK_BYTES
        assert k == len(sizes) - 1 or size == shard.STREAM_BLOCK_LINES or held >= shard.CHUNK_BYTES


@pytest.fixture(scope="session")
def shaped_tars(tmp_path_factory) -> dict[str, list]:
    """Seeded TARs, in sequence order, of two member shapes, built once.

    "elephant": 489 members of 1-15 entries, 64 per TAR, all decoded in groups.
    "uniform": 13 members, 4 per TAR; all but the partial last window hold more
    entries than GROUP_MEMBER_ENTRIES and are decoded alone.
    "elephant_v1" and "uniform_v1" hold the same matrices as version 1 blobs.
    """
    tars = {}
    for shape, cfg, window_bits, per_tar in [
        ("elephant", ELEPHANT_INPUT, 17, 64), ("uniform", UNIFORM_INPUT, 15, 4),
    ]:
        out = tmp_path_factory.mktemp(shape)
        run_ingest(generate(cfg), None, out, window_packets=1 << window_bits, per_tar=per_tar)
        tars[shape] = sorted(out.glob("*.tar"), key=lambda p: int(p.stem.split("_")[1]))
        out_v1 = tmp_path_factory.mktemp(f"{shape}_v1")
        tars[f"{shape}_v1"] = [rewrite_as_v1(path, out_v1) for path in tars[shape]]
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
    """verify_archive as one decode_matrix and one re-encode per member: the oracle.

    A member is re-encoded whole, by the writer of its version.
    """
    failures = []
    try:
        for name, blob in iter_archive(path):
            try:
                matrix, meta = decode_matrix(blob)
            except IntegrityError as exc:
                failures.append(f"{name}: {exc}")
                continue
            encode = encode_v1 if blob_version(blob) == 1 else encode_v2
            if encode(matrix, meta) != blob:
                failures.append(f"{name}: re-encode is not bit-identical")
                continue
            if total_sum(matrix) != meta.packet_total:
                failures.append(
                    f"{name}: packet_total {meta.packet_total} != matrix sum {total_sum(matrix)}"
                )
    except ContainerError as exc:
        failures.append(str(exc))
    return failures
