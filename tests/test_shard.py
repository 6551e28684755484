"""The sharded file parse: chunk ownership, equality with the in-process parse,
and the lifecycle of the forked workers."""

import contextlib
import errno
import functools
import hashlib
import io
import json
import os
import random
import signal
import sys
import time
import types

import pytest

from flowmat import eve, shard
from flowmat.archive import ArchiveWriter, iter_archive
from flowmat.cryptopan import CryptoPan
from flowmat.eve import (
    MAX_LINE_BYTES, IngestCounters, _bounded_lines, chunk_lines, open_source, parse_columns,
)
from flowmat.flowgen import GenConfig, generate
from flowmat.pipeline import BATCH_RECORDS, run_ingest, verify_archive
from tests.conftest import criterion_9_corpus
from tests.test_golden import FIXED_CLOCK, GOLDEN_INPUT, GOLDEN_TARS, KEY


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail, instead of hanging, when the block takes longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pids of the processes forked during the test, seen from the parent."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def sharded(monkeypatch, forks):
    """Up to three parse workers, all children, and a fixed clock."""
    monkeypatch.setattr(shard, "worker_count", lambda: 3)
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)
    return forks


def digests(out_dir) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.tar"))}


def ingest_file(path, out_dir, *, sharded: bool, anon=None, window_packets=1 << 10):
    """run_ingest of a file through its FileLineSource, or through a plain line iterator."""
    source = open_source(str(path))
    try:
        lines = source if sharded else iter(source)
        return run_ingest(lines, anon, out_dir, window_packets=window_packets, per_tar=8)
    finally:
        source.close()


def all_chunk_lines(data: bytes, chunk: int, tmp_path) -> list[bytes]:
    path = tmp_path / "chunked.ndjson"
    path.write_bytes(data)
    fd = os.open(path, os.O_RDONLY)
    try:
        return [
            line for start in range(0, len(data), chunk)
            for line in chunk_lines(fd, start, min(start + chunk, len(data)), len(data))
        ]
    finally:
        os.close(fd)


# --- chunk ownership ---------------------------------------------------------

SMALL_MAX = 16  # MAX_LINE_BYTES for the byte-level tests, so over-long lines stay short

EDGE_CORPORA = {
    "mixed_tail_without_newline": b"a\n\nbb\n" + b"x" * 40 + b"\ncc\n\n\nd",
    "ends_with_newline": b"first\n" + b"y" * 17 + b"\n\nlast\n",
    "overlong_tail_without_newline": b"ok\n" + b"z" * 50,
    "limit_and_limit_plus_one": b"m" * SMALL_MAX + b"\n" + b"n" * (SMALL_MAX + 1) + b"\nend",
    "blank_only": b"\n\n\n",
    "empty": b"",
    "one_byte": b"q",
}


@pytest.mark.parametrize("name", sorted(EDGE_CORPORA))
def test_chunk_lines_equal_bounded_lines_at_every_chunk_size(name, tmp_path, monkeypatch):
    monkeypatch.setattr(eve, "MAX_LINE_BYTES", SMALL_MAX)
    monkeypatch.setattr(eve, "_READ_ON_BYTES", 5)
    data = EDGE_CORPORA[name]
    want = list(_bounded_lines(io.BytesIO(data)))
    for chunk in range(1, len(data) + 2):
        assert all_chunk_lines(data, chunk, tmp_path) == want, f"chunk {chunk}"


def test_chunk_lines_equal_bounded_lines_on_random_files(tmp_path, monkeypatch):
    monkeypatch.setattr(eve, "MAX_LINE_BYTES", SMALL_MAX)
    monkeypatch.setattr(eve, "_READ_ON_BYTES", 7)
    rnd = random.Random(31)
    for _ in range(60):
        data = b"".join(
            b"\n" * rnd.randrange(3) + b"w" * rnd.choice([0, 1, 5, 15, 16, 17, 40])
            for _ in range(rnd.randrange(1, 12))
        )
        want = list(_bounded_lines(io.BytesIO(data)))
        for chunk in (1, 2, 3, 7, 16, 17, 33):
            assert all_chunk_lines(data, chunk, tmp_path) == want, (data, chunk)


def test_chunk_inside_an_overlong_line_owns_nothing(tmp_path):
    data = b"a\n" + b"x" * (3 * MAX_LINE_BYTES) + b"\nb\n"
    path = tmp_path / "long.ndjson"
    path.write_bytes(data)
    fd = os.open(path, os.O_RDONLY)
    try:
        assert chunk_lines(fd, 100, 1000, len(data)) == []
        assert chunk_lines(fd, MAX_LINE_BYTES, 2 * MAX_LINE_BYTES, len(data)) == []
        first = chunk_lines(fd, 0, 100, len(data))
        assert [len(line) for line in first] == [1, MAX_LINE_BYTES + 1]
        assert chunk_lines(fd, len(data) - 3, len(data), len(data)) == [b"b"]
    finally:
        os.close(fd)


def test_file_is_read_up_to_its_size_when_opened(tmp_path, sharded):
    path = tmp_path / "growing.ndjson"
    lines = list(generate(GenConfig(n_flows=500, seed=3)))
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    source = open_source(str(path))
    try:
        with open(path, "ab") as fh:
            fh.write(lines[0] + b"\n")
        result = run_ingest(source, None, tmp_path / "out")
    finally:
        source.close()
    assert result.counters.lines_consumed == 500


# --- one reader per kind of input -------------------------------------------

def file_of_chunks(path, chunks: int) -> int:
    """Write flow lines filling `chunks` chunks of CHUNK_BYTES, the last one half; returns lines."""
    target = max(0, (2 * chunks - 1) * shard.CHUNK_BYTES // 2)
    lines = 0
    with open(path, "wb") as fh:
        for line in generate(GenConfig(n_flows=target // 100 + 1, seed=9)):
            if fh.tell() >= target:
                break
            fh.write(line + b"\n")
            lines += 1
    assert -(-path.stat().st_size // shard.CHUNK_BYTES) == chunks
    return lines


@pytest.mark.parametrize("chunks, children", [(0, 0), (1, 0), (2, 2), (5, 3)])
def test_every_regular_file_is_read_in_chunks(chunks, children, tmp_path, monkeypatch, sharded):
    def streamed(self):
        raise AssertionError("a regular file was read line by line")

    monkeypatch.setattr(eve.FileLineSource, "__iter__", streamed)
    path = tmp_path / "in.ndjson"
    lines = file_of_chunks(path, chunks)
    result = ingest_file(path, tmp_path / "out", sharded=True)
    assert len(sharded) == children
    assert result.counters.records_ok == result.counters.lines_consumed == lines


@pytest.mark.parametrize("kind", ["stdin", "iterable"])
def test_streams_are_read_line_by_line_in_process(kind, tmp_path, monkeypatch, sharded):
    def chunked(*args):
        raise AssertionError("a stream was read in chunks")

    monkeypatch.setattr(shard, "parse_file", chunked)
    path = tmp_path / "in.ndjson"
    n_lines = file_of_chunks(path, 5)
    with open(path, "rb") as fh:
        if kind == "stdin":  # stdin redirected from a regular file is still a stream
            monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=fh))
            lines = open_source("-")
        else:
            lines = fh.read().splitlines()
        result = run_ingest(lines, None, tmp_path / "out")
    assert sharded == []
    assert result.counters.lines_consumed == n_lines


def test_file_of_a_few_chunks_gives_the_same_archives_chunked(tmp_path, sharded):
    corpus, _, _ = cached_criterion_9_corpus()
    path = tmp_path / "mixed.ndjson"
    path.write_bytes(b"\n".join(corpus[:9_000]) + b"\n")
    assert -(-path.stat().st_size // shard.CHUNK_BYTES) == 3
    anon = CryptoPan(KEY)
    want = ingest_file(path, tmp_path / "streamed", sharded=False, anon=anon)
    assert sharded == []
    got = ingest_file(path, tmp_path / "chunked", sharded=True, anon=anon)
    assert len(sharded) == 3
    assert got.counters == want.counters
    assert got.counters.records_skipped_malformed > 0 and got.counters.records_ok > 0
    assert digests(tmp_path / "chunked") == digests(tmp_path / "streamed") != {}


@pytest.mark.parametrize("depth", [10**3, 10**5])
def test_deeply_nested_line_in_a_child_chunk_is_counted_malformed(depth, tmp_path, monkeypatch,
                                                                  sharded):
    monkeypatch.setattr(shard, "CHUNK_BYTES", 4096)
    lines = list(generate(GenConfig(n_flows=2_000, seed=7)))
    at = 50  # past the first 4096 bytes, so the line starts in a child's chunk
    assert 4096 <= sum(len(line) + 1 for line in lines[:at]) < 2 * 4096
    path = tmp_path / "deep.ndjson"
    path.write_bytes(b"\n".join(lines[:at] + [b'{"event_type":"flow","x":' + b"[" * depth]
                                + lines[at:]) + b"\n")
    result = ingest_file(path, tmp_path / "out", sharded=True)
    assert len(sharded) == 3
    assert result.counters.records_skipped_malformed == 1
    assert result.counters.records_ok == 2_000


# --- sharded equals sequential ----------------------------------------------

@pytest.fixture(scope="module")
def golden_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.ndjson"
    with open(path, "wb") as fh:
        for line in generate(GOLDEN_INPUT):
            fh.write(line + b"\n")
    return path


@pytest.mark.parametrize("mode", sorted(GOLDEN_TARS))
def test_sharded_ingest_of_golden_input_gives_golden_tars(mode, golden_file, tmp_path,
                                                          monkeypatch, forks):
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)
    monkeypatch.setattr(shard, "worker_count", lambda: 3)
    anon = CryptoPan(KEY) if mode == "anon" else None
    source = open_source(str(golden_file))
    try:
        result = run_ingest(source, anon, tmp_path)
    finally:
        source.close()
    assert len(forks) == 3
    assert result.counters.records_ok == GOLDEN_INPUT.n_flows
    assert digests(tmp_path) == GOLDEN_TARS[mode]


cached_criterion_9_corpus = functools.cache(criterion_9_corpus)


def edge_corpus(chunk: int, ends_on_chunk_edge: bool) -> bytes:
    """Flow and junk lines, blank lines and an over-long line across many chunks."""
    corpus, _, _ = cached_criterion_9_corpus()
    body = b"\n".join(corpus[:15_000])
    blanks = b"\n\n\n".join(corpus[15_000:16_000])
    overlong = b"x" * (MAX_LINE_BYTES + 1) + b"," + corpus[3]  # no flow line, however it is cut
    data = body + b"\n\n" + overlong + b"\n" + blanks + b"\n\n" + b"\n".join(corpus[16_000:20_000])
    if ends_on_chunk_edge:
        data += b"\n" + b" " * (-(len(data) + 2) % chunk) + b"\n"
        assert len(data) % chunk == 0
    else:
        data += b"\n" + corpus[5] + b"," + corpus[3]  # the last line has no newline
        assert len(data) % chunk
    return data


@pytest.mark.parametrize("chunk", [4096, 10_007])
@pytest.mark.parametrize("ends_on_chunk_edge", [True, False], ids=["edge_end", "no_newline_end"])
def test_sharded_ingest_equals_sequential_at_small_chunks(chunk, ends_on_chunk_edge, tmp_path,
                                                          monkeypatch, sharded):
    monkeypatch.setattr(shard, "CHUNK_BYTES", chunk)
    path = tmp_path / "edges.ndjson"
    path.write_bytes(edge_corpus(chunk, ends_on_chunk_edge))
    anon = CryptoPan(KEY)
    want = ingest_file(path, tmp_path / "sequential", sharded=False, anon=anon)
    assert sharded == []
    got = ingest_file(path, tmp_path / "sharded", sharded=True, anon=anon)
    assert len(sharded) == 3
    assert got.counters == want.counters
    assert got.counters.records_skipped_malformed > 0 and got.counters.records_ok > 0
    assert (got.windows_written, got.packets_total) == (want.windows_written, want.packets_total)
    assert digests(tmp_path / "sharded") == digests(tmp_path / "sequential") != {}


def test_parse_batches_count_every_line_like_the_stream(tmp_path, sharded, monkeypatch):
    monkeypatch.setattr(shard, "CHUNK_BYTES", 4096)
    path = tmp_path / "edges.ndjson"
    path.write_bytes(edge_corpus(4096, False))
    fd = os.open(path, os.O_RDONLY)
    try:
        counters = IngestCounters()
        chunks = [batches for batches, _ in shard.parse_file(fd, path.stat().st_size, counters,
                                                              None)]
    finally:
        os.close(fd)
    # one non-empty batch per chunk that owns a record
    assert all(len(batches) <= 1 for batches in chunks)
    batches = [batch for batches in chunks for batch in batches]
    assert all(len(batch) > 0 for batch in batches)
    assert sum(map(len, batches)) == counters.records_ok
    with open(path, "rb") as fh:
        assert counters.lines_consumed == len(list(_bounded_lines(fh)))


# --- the column kernel at its boundaries ------------------------------------

def boundary_line(src: str, dst: str, toserver: int, toclient: int, *, spaced: bool) -> bytes:
    sep = b", " if spaced else b","  # a space takes the line past the compact clause
    return sep.join([
        b'{"event_type":"flow"', b'"src_ip":"%s"' % src.encode(), b'"dest_ip":"%s"' % dst.encode(),
        b'"flow":{"pkts_toserver":%d,"pkts_toclient":%d}}' % (toserver, toclient),
    ])


BIG19 = 9_999_999_999_999_999_999
U64_MAX = (1 << 64) - 1
BOUNDARY_LINES = [
    boundary_line("0.0.0.0", "255.255.255.255", BIG19, 0, spaced=False),
    boundary_line("255.0.255.0", "0.255.0.255", 0, BIG19, spaced=False),
    boundary_line("010.001.0.255", "255.9.99.0", BIG19, BIG19, spaced=False),
    boundary_line("255.255.255.255", "0.0.0.0", U64_MAX, 1, spaced=True),
    boundary_line("1.2.3.4", "5.6.7.8", 3, U64_MAX, spaced=True),
    boundary_line("1.2.3.4", "5.6.7.8", U64_MAX + 1, 1, spaced=True),  # over 2^64 - 1: malformed
]


def oracle_columns(lines) -> tuple[list[list[int]], int]:
    """The four columns of the lines by Python ints and json.loads, and the malformed count."""
    columns, malformed = [[], [], [], []], 0
    for line in lines:
        doc = json.loads(line)
        counts = doc["flow"]["pkts_toserver"], doc["flow"]["pkts_toclient"]
        if max(counts) > U64_MAX:
            malformed += 1
            continue
        addrs = [int.from_bytes(bytes(map(int, doc[key].split("."))), "big")
                 for key in ("src_ip", "dest_ip")]
        for column, value in zip(columns, addrs + list(counts)):
            column.append(value)
    return columns, malformed


def batch_columns(batches) -> list[list[int]]:
    batches = list(batches)
    return [[v for b in batches for v in getattr(b, name).tolist()]
            for name in ("src", "dst", "toserver", "toclient")]


def test_column_kernel_is_exact_at_its_boundaries(tmp_path, monkeypatch, sharded):
    compact = eve._compact_flow_pattern().fullmatch
    assert [bool(compact(line)) for line in BOUNDARY_LINES] == [True] * 3 + [False] * 3
    lines = BOUNDARY_LINES * 400  # many 4 KiB chunks, so every worker parses each kind
    want, malformed = oracle_columns(lines)
    assert malformed == 400

    counters = IngestCounters()
    assert batch_columns(parse_columns(lines, counters, BATCH_RECORDS)) == want
    assert counters.records_skipped_malformed == malformed

    monkeypatch.setattr(shard, "CHUNK_BYTES", 4096)
    path = tmp_path / "boundary.ndjson"
    path.write_bytes(b"\n".join(lines) + b"\n")
    fd = os.open(path, os.O_RDONLY)
    try:
        counters = IngestCounters()
        chunks = list(shard.parse_file(fd, path.stat().st_size, counters, None))
    finally:
        os.close(fd)
    assert len(sharded) == 3
    assert batch_columns(batch for batches, _ in chunks for batch in batches) == want
    assert counters.records_skipped_malformed == malformed
    assert counters.records_ok == len(want[0])


# --- worker lifecycle --------------------------------------------------------

@pytest.fixture
def big_input(tmp_path, monkeypatch):
    """A file of many 4 KiB chunks and many windows of 2^8 packets."""
    monkeypatch.setattr(shard, "CHUNK_BYTES", 4096)
    path = tmp_path / "big.ndjson"
    with open(path, "wb") as fh:
        for line in generate(GenConfig(n_flows=20_000, seed=5)):
            fh.write(line + b"\n")
    return path


def test_parent_error_kills_and_reaps_every_child(big_input, tmp_path, monkeypatch, sharded):
    append = ArchiveWriter.append
    calls = []

    def failing_append(self, blob, meta):
        calls.append(meta.seq)
        if len(calls) == 20:
            raise OSError(errno.ENOSPC, "No space left on device")
        return append(self, blob, meta)

    monkeypatch.setattr(ArchiveWriter, "append", failing_append)
    with deadline(60), pytest.raises(OSError, match="No space left"):
        ingest_file(big_input, tmp_path / "out", sharded=True, window_packets=1 << 8)
    assert len(sharded) == 3
    for pid in sharded:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # already reaped
    assert all(verify_archive(tar) == [] for tar in (tmp_path / "out").glob("*.tar"))


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_dead_child_is_an_error_naming_its_status(death, big_input, tmp_path, monkeypatch,
                                                  sharded):
    parent = os.getpid()
    parse_chunk = shard._parse_chunk

    def dying_parse_chunk(fd, size, chunk, index, batch_records):
        if os.getpid() != parent and index == 40:
            if death == "exit":
                os._exit(7)
            os.kill(os.getpid(), signal.SIGKILL)
        return parse_chunk(fd, size, chunk, index, batch_records)

    monkeypatch.setattr(shard, "_parse_chunk", dying_parse_chunk)
    message = "exited with status 7" if death == "exit" else "was killed by signal 9"
    with deadline(60), pytest.raises(shard.WorkerError, match=f"{message} before sending chunk 40"):
        ingest_file(big_input, tmp_path / "out", sharded=True, window_packets=1 << 8)
    tars = list((tmp_path / "out").glob("*.tar"))
    members = [len(list(iter_archive(tar))) for tar in tars]
    assert len(tars) > 1 and 0 < min(members) < 8  # the TAR that was open is finalized
    assert all(verify_archive(tar) == [] for tar in tars)


def test_child_exit_status_after_its_last_chunk_is_checked(big_input, tmp_path, monkeypatch,
                                                           sharded):
    parent, exit_ = os.getpid(), os._exit
    monkeypatch.setattr(os, "_exit", lambda code: exit_(5 if os.getpid() != parent else code))
    with deadline(60), pytest.raises(shard.WorkerError, match="status 5 after its last chunk"):
        ingest_file(big_input, tmp_path / "out", sharded=True)


def test_workers_ignore_sigterm(big_input, sharded):
    size = big_input.stat().st_size
    fd = os.open(big_input, os.O_RDONLY)
    try:
        counters = IngestCounters()
        chunks = shard.parse_file(fd, size, counters, None)
        with deadline(60), contextlib.closing(chunks):
            taken = [next(chunks), next(chunks)]  # every worker has sent a chunk
            for pid in sharded:
                os.kill(pid, signal.SIGTERM)
            taken += chunks  # and the last chunk is checked for exit status 0
    finally:
        os.close(fd)
    assert len(sharded) == 3
    assert len(taken) == -(-size // 4096)
    assert counters.records_ok == counters.lines_consumed == 20_000


def test_result_cut_short_is_a_worker_error():
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.write(write_fd, shard._LENGTH.pack(100) + b"x" * 10)
        os._exit(3)
    os.close(write_fd)
    worker = shard._Worker(pid, open(read_fd, "rb"))
    try:
        with deadline(60), pytest.raises(shard.WorkerError, match="status 3 before sending chunk 1"):
            worker.receive(1)
    finally:
        worker.stop()


def serve_in_child(path, chunk, k, n):
    """Fork one worker by hand; returns its pid and the parent's end of its pipe."""
    fd = os.open(path, os.O_RDONLY)
    size = path.stat().st_size
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        shard._serve(lambda i: shard._parse_chunk(fd, size, chunk, i, BATCH_RECORDS),
                     range(k, -(-size // chunk), n), write_fd)
    os.close(write_fd)
    os.close(fd)
    return pid, read_fd


def test_child_ignores_sigint(big_input):
    size = big_input.stat().st_size
    n_chunks = -(-size // 4096)
    pid, read_fd = serve_in_child(big_input, 4096, 1, 2)
    worker = shard._Worker(pid, open(read_fd, "rb"))
    try:
        with deadline(60):
            received = [worker.receive(1)]  # the child has set up its signals
            os.kill(pid, signal.SIGINT)
            received += [worker.receive(i) for i in range(3, n_chunks, 2)]
            worker.finish()
    finally:
        worker.stop()
    assert worker.exit_code == 0
    fd = os.open(big_input, os.O_RDONLY)
    try:
        for i, (batches, counters) in zip(range(1, n_chunks, 2), received):
            want_batches, want_counters = shard._parse_chunk(fd, size, 4096, i, BATCH_RECORDS)
            assert counters == want_counters
            assert [b.src.tolist() for b in batches] == [b.src.tolist() for b in want_batches]
    finally:
        os.close(fd)


def test_child_exits_quietly_once_the_parent_is_gone(big_input, capfd):
    pid, read_fd = serve_in_child(big_input, 4096, 1, 2)
    os.close(read_fd)  # as when the parent dies: the child's next write breaks the pipe
    with deadline(60):
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1
    assert capfd.readouterr().err == ""
