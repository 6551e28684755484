"""Golden archives: a seeded ingest with a fixed clock must produce these exact TARs.

The digests pin every byte the pipeline writes (window split points, matrix
build, blob encoding, TAR layout and naming), so a refactor that claims to
leave the output unchanged can be checked mechanically. A change that alters
the archives on purpose must re-record them and say why. These are the
digests of version 2 blobs, one LZ4 block and one CRC32 per matrix. Three
kinds of input are pinned: a line iterable, parsed in blocks of lines; the
same lines in a file, parsed in byte chunks; and the file's bytes read from
a pipe that a thread writes in random-sized pieces, so the stream reader's
line cutter is held to the file chunks' through real pipe reads. The
many-window case pins thousands of small windows in TARs of five members, so
the windows one segmented build completes are written across many TAR
boundaries. The Suricata case pins Suricata-shaped lines: IPv4 and IPv6
flows among other events and cut lines. The benchmark's own inputs are held
to the decoded-matrix digests it records (perfbench/digests.json), so a
change that breaks its check shows here and not only as an incorrect run.
"""

import hashlib
import importlib.util
import os
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from flowmat import shard
from flowmat.cryptopan import CryptoPan
from flowmat.eve import FileLineSource, open_source
from flowmat.flowgen import GenConfig, generate
from flowmat.pipeline import run_ingest
from flowmat.window import MAX_WINDOWS_PER_BUILD
from tests.conftest import suricata_lines

KEY = bytes(range(32))
FIXED_CLOCK = 1_724_000_000.75

# zipf sources fold duplicate coordinates; geometric counts with split 0.5
# give both directed entries and windows that split flows at the boundary
GOLDEN_INPUT = GenConfig(n_flows=200_000, geometric_mean=100.0, addr_model="zipf",
                         split=0.5, seed=2409)

GOLDEN_TARS = {
    "anon": {
        "1724000000_0.tar": "60c1bed7f7e16f9d9195fc114913fff27a885784f51fb446a92a7f2b6f9aae2a",
        "1724000000_64.tar": "c0c5ca66ef555f878c0dbd08eda39f032adaebc5f1c280bd43ad3ea983a83b62",
        "1724000000_128.tar": "426cec7fbfa66a522311506ea7dc0a32fdbf4b80894f64c08f7775ac145c74ed",
    },
    "raw": {
        "1724000000_0.tar": "c52f0afc21b66133a515f5d2f32a8f9543475232aa81ac6ba8d7ca4135066369",
        "1724000000_64.tar": "8d57cf5c58775f496c94482320259e93fa3a2a2b08e86420707c55df47b16440",
        "1724000000_128.tar": "02663911337cc43008d1563008b682e8d6888656deb2d57ac511624b9e41f67b",
    },
}

# about one window of 2^12 packets per flow: 3,054 windows in 611 TARs
MANY_WINDOWS_INPUT = GenConfig(n_flows=3_000, geometric_mean=4096.0, split=0.5, seed=2410)
MANY_WINDOWS_BITS = 12
MANY_WINDOWS_PER_TAR = 5
MANY_WINDOWS_TARS = 611
# sha256 over every TAR in name order: its name, a NUL, then its bytes
MANY_WINDOWS_DIGEST = {
    "anon": "353809dd0a0f4b985e71279cf7fce2fd168581e16d58244ee28f33cb45f619fb",
    "raw": "2bddd7958799c940ffbd7fd36c58d862c88608c99572f3d2aaf9e77f31a7ad19",
}


# 9.3 MB of Suricata-shaped lines (tests.conftest.suricata_lines): IPv4 and
# IPv6 flows, other events and cut lines, in 240 windows of 2^12 packets
SURICATA_LINES = 20_000
SURICATA_SEED = 2411
SURICATA_WINDOW_BITS = 12
SURICATA_TARS = {
    "anon": {
        "1724000000_0.tar": "b104dbed8b0d61ee1490077ecaee98a4e3d25806280c434bd4445ae0c69eacd6",
        "1724000000_64.tar": "467118dccefa7d4cafcc55b25d15ed897adb1504f331bc7302ebe674da3d6d1b",
        "1724000000_128.tar": "7f25b1d7d8192883b3d81c3c2afbe94fca315965d603680e4d0b808e39c27e78",
        "1724000000_192.tar": "ee01c484a0f2909a1fc1195dfb3a6e8e308024c8fadfc12698fe40e6b565950a",
    },
    "raw": {
        "1724000000_0.tar": "8451b02b98f001cb6dee1c7b95d89fad8833f2f67a0e330ee9638e5b006deeae",
        "1724000000_64.tar": "47dcda3607d08e66bb5573d255ef0b34884506821da19990f0fcd84722b5d6ed",
        "1724000000_128.tar": "9cd4022b180e37439e1446f9104d5d405a014af249d1f6abbd7e78b4c8a384e2",
        "1724000000_192.tar": "3b754f4bd7152af2b1ebedc6ba02e4d1f2eb213973c26ed49b23ae87fe9ff081",
    },
}
# the summary's counters, equal in both modes and from every source
SURICATA_RESULT = {
    "records_ok": 9_885, "records_skipped_non_flow": 7_874, "records_skipped_ipv6": 2_053,
    "records_skipped_malformed": 188, "records_skipped_window_span": 0,
    "lines_consumed": 20_000, "windows_written": 240, "windows_partial": 1,
    "tars_finalized": 4, "packets_total": 982_018, "raw_bytes": 479_496,
}

# the pipe writer's piece sizes
PIPE_SEED = 2412


@pytest.fixture(scope="module")
def golden_lines():
    return list(generate(GOLDEN_INPUT))


@pytest.fixture(scope="module")
def golden_file(golden_lines, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.ndjson"
    path.write_bytes(b"".join(line + b"\n" for line in golden_lines))
    return path


def _ingest(source, lines, path, anon, out_dir, **kwargs):
    """Ingest lines as a line iterable (stream), from the file at path (file),
    or from the file's bytes read through a pipe (pipe)."""
    if source == "stream":
        return run_ingest(iter(lines), anon, out_dir, **kwargs)
    if source == "pipe":
        return _ingest_pipe(path.read_bytes(), anon, out_dir, **kwargs)
    opened = open_source(str(path))
    try:
        return run_ingest(opened, anon, out_dir, **kwargs)
    finally:
        opened.close()


def _ingest_pipe(data, anon, out_dir, **kwargs):
    """Ingest data from a FileLineSource over os.pipe(), which a thread
    writes in seeded random-sized pieces of 1 B to 64 KiB and then closes."""
    read_fd, write_fd = os.pipe()

    def write():
        rnd, view = random.Random(PIPE_SEED), memoryview(data)
        try:
            while view:
                view = view[os.write(write_fd, view[:round(2 ** rnd.uniform(0, 16))]):]
        except BrokenPipeError:
            pass  # the ingest failed and closed the read end; its error is raised
        finally:
            os.close(write_fd)

    writer = threading.Thread(target=write)
    writer.start()
    source = FileLineSource(open(read_fd, "rb"), owns=True)
    try:
        assert source.size is None  # read as a stream
        result = run_ingest(source, anon, out_dir, **kwargs)
    finally:
        source.close()
        writer.join(timeout=60)
    assert not writer.is_alive()
    return result


@pytest.mark.parametrize("source", ["stream", "file", "pipe"])
@pytest.mark.parametrize("mode", sorted(GOLDEN_TARS))
def test_golden_archives(mode, source, golden_lines, golden_file, tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)
    anon = CryptoPan(KEY) if mode == "anon" else None
    assert golden_file.stat().st_size > 10 * shard.CHUNK_BYTES
    _ingest(source, golden_lines, golden_file, anon, tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.tar"))
    }
    assert digests == GOLDEN_TARS[mode]


@pytest.mark.parametrize("source", ["stream", "file", "pipe"])
@pytest.mark.parametrize("mode", sorted(MANY_WINDOWS_DIGEST))
def test_golden_many_windows(mode, source, tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)
    lines = list(generate(MANY_WINDOWS_INPUT))
    path = tmp_path / "many.ndjson"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    anon = CryptoPan(KEY) if mode == "anon" else None
    out = tmp_path / "out"
    result = _ingest(source, lines, path, anon, out, window_packets=1 << MANY_WINDOWS_BITS,
                     per_tar=MANY_WINDOWS_PER_TAR)
    tars = sorted(out.glob("*.tar"))
    digest = hashlib.sha256()
    for tar in tars:
        digest.update(tar.name.encode() + b"\0" + tar.read_bytes())
    # a 256 KiB file chunk completes more windows than one segmented build takes
    assert result.windows_written > 2 * MAX_WINDOWS_PER_BUILD
    assert len(tars) == MANY_WINDOWS_TARS == result.tars_finalized
    assert digest.hexdigest() == MANY_WINDOWS_DIGEST[mode]


@pytest.fixture(scope="module")
def suricata_input(tmp_path_factory):
    lines = suricata_lines(SURICATA_LINES, seed=SURICATA_SEED)
    path = tmp_path_factory.mktemp("suricata") / "eve.json"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return lines, path


@pytest.mark.parametrize("source", ["stream", "file", "pipe"])
@pytest.mark.parametrize("mode", sorted(SURICATA_TARS))
def test_golden_suricata_archives(mode, source, suricata_input, tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)
    lines, path = suricata_input
    assert path.stat().st_size > 10 * shard.CHUNK_BYTES
    anon = CryptoPan(KEY) if mode == "anon" else None
    summary = _ingest(source, lines, path, anon, tmp_path,
                      window_packets=1 << SURICATA_WINDOW_BITS).as_dict()
    assert {key: summary[key] for key in SURICATA_RESULT} == SURICATA_RESULT
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.tar"))
    }
    assert digests == SURICATA_TARS[mode]


def _perfbench(name: str, monkeypatch):
    """A perfbench module, loaded by path: perfbench is a directory of scripts."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["uniform_bulk", "elephant_windows"])
def test_benchmark_inputs_give_their_recorded_digests(workload, tmp_path, monkeypatch):
    run, workloads = _perfbench("run", monkeypatch), _perfbench("workloads", monkeypatch)
    path = tmp_path / "eve.json"
    workloads.generate(workload, 1, path)
    source = open_source(str(path))
    try:
        run_ingest(source, CryptoPan(bytes.fromhex(run.KEY_HEX)), tmp_path / "out",
                   window_packets=1 << run.WINDOW_BITS, per_tar=run.PER_TAR)
    finally:
        source.close()
    tars = sorted((tmp_path / "out").glob("*.tar"))
    assert run.archive_digest(tars) == run.known_digest(workload, 1)
