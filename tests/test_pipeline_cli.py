import gc
import itertools
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
import warnings

import pytest
from click.testing import CliRunner

from flowmat import shard
from flowmat.cli import main
from flowmat.archive import decode_matrix, iter_archive
from flowmat.cryptopan import CryptoPan
from flowmat.eve import IngestCounters, open_source
from flowmat.flowgen import GenConfig, generate
from flowmat.pipeline import run_bench, run_ingest, verify_archive
from tests.conftest import ELEPHANT_INPUT
from tests.test_golden import FIXED_CLOCK

KEY = bytes(range(32))
FLOW_LINE = (
    b'{"event_type":"flow","src_ip":"10.0.0.3","dest_ip":"10.0.0.4",'
    b'"flow":{"pkts_toserver":7,"pkts_toclient":3}}'
)


def run_cli(*args, input_bytes=None, env=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "flowmat", *args],
        input=input_bytes, capture_output=True, env=env, timeout=timeout,
    )


def without_blas_threads_setting() -> dict:
    # importing flowmat.cli in this process sets it, and children inherit it
    return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_leaves_one_thread():
    code = "import os, flowmat.cli; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=without_blas_threads_setting(), check=True)
    assert proc.stdout == b"1\n"


@pytest.mark.parametrize("module, given, expected", [
    ("flowmat.cli", None, "1"),
    ("flowmat.cli", "2", "2"),
    ("flowmat.pipeline", None, "None"),
])
def test_only_the_command_line_caps_blas_threads(module, given, expected):
    env = without_blas_threads_setting()
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = f"import os, {module}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    assert proc.stdout.decode() == expected + "\n"


@pytest.fixture(scope="module")
def eve_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "eve.ndjson"
    with open(path, "wb") as fh:
        for line in generate(GenConfig(n_flows=5000, seed=11)):
            fh.write(line + b"\n")
    return path


def test_run_ingest_stage_seconds(eve_file, tmp_path):
    with open(eve_file, "rb") as fh:
        lines = fh.read().splitlines()
    result = run_ingest(iter(lines), CryptoPan(KEY), tmp_path, window_packets=1 << 12)
    assert result.packets_total == 500_000
    stages = result.stage_seconds
    assert set(stages) == {"parse", "anonymize", "window_build", "encode_archive"}
    assert all(sec >= 0 for sec in stages.values())
    assert sum(stages.values()) <= result.seconds
    assert result.as_dict()["stage_seconds"].keys() == stages.keys()


def test_sharded_file_stage_seconds_split_the_wait_by_worker_cpu(eve_file, tmp_path):
    assert eve_file.stat().st_size > shard.CHUNK_BYTES  # parsed and anonymized by workers
    source = open_source(str(eve_file))
    try:
        result = run_ingest(source, CryptoPan(KEY), tmp_path, window_packets=1 << 12)
    finally:
        source.close()
    stages, cpu = result.stage_seconds, result.worker_cpu_seconds
    assert all(sec > 0 for sec in stages.values())
    assert sum(stages.values()) <= result.seconds
    assert set(cpu) == {"parse", "anonymize"} and all(sec > 0 for sec in cpu.values())
    assert result.as_dict()["worker_cpu_seconds"] == {k: round(v, 6) for k, v in cpu.items()}


def test_summary_counts_raw_and_blob_bytes(tmp_path):
    summary = run_ingest(generate(ELEPHANT_INPUT), None, tmp_path, window_packets=1 << 17,
                         per_tar=16).as_dict()
    blobs = [blob for tar in tmp_path.glob("*.tar") for _, blob in iter_archive(tar)]
    assert len(blobs) == summary["windows_written"] > 16
    assert summary["blob_bytes"] == sum(map(len, blobs))
    arrays = [(m.rows_present, m.row_ptr, m.col_ids, m.vals)
              for m, _ in map(decode_matrix, blobs)]
    assert summary["raw_bytes"] == sum(a.nbytes for four in arrays for a in four)


def test_stream_read_waits_stay_in_parse(tmp_path):
    block, pause = shard.STREAM_BLOCK_LINES, 0.2

    def lines():
        for i, line in enumerate(generate(GenConfig(n_flows=3 * block, seed=12))):
            if i and i % block == 0:
                time.sleep(pause)  # a quiet sensor between two blocks
            yield line

    result = run_ingest(lines(), CryptoPan(KEY), tmp_path, window_packets=1 << 12)
    stages, cpu = result.stage_seconds, result.worker_cpu_seconds
    assert result.counters.records_ok == 3 * block
    assert all(sec > 0 for sec in cpu.values())
    # anonymize never gets more than its own CPU seconds, so the waits are parse's
    assert stages["anonymize"] <= cpu["anonymize"]
    assert stages["parse"] >= 2 * pause
    assert sum(stages.values()) <= result.seconds


def test_parent_cpu_seconds_hold_a_streams_parse_and_anonymize(tmp_path):
    lines = generate(GenConfig(n_flows=4 * shard.STREAM_BLOCK_LINES, seed=12))
    result = run_ingest(lines, CryptoPan(KEY), tmp_path, window_packets=1 << 12)
    cpu = result.worker_cpu_seconds
    assert all(sec > 0 for sec in cpu.values())
    # the stream is parsed and anonymized in this process, inside its CPU interval
    assert result.parent_cpu_seconds >= cpu["parse"] + cpu["anonymize"]
    assert result.as_dict()["parent_cpu_seconds"] == round(result.parent_cpu_seconds, 3)


@pytest.mark.parametrize("kind", ["empty", "non_flow"])
def test_stream_without_records_writes_no_window(kind, tmp_path):
    # 1,000 non-flow lines are two blocks, neither holding a record
    lines = [] if kind == "empty" else [b'{"event_type":"alert","src_ip":"10.0.0.1"}'] * 1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_ingest(iter(lines), CryptoPan(KEY), tmp_path, window_packets=1 << 12)
    assert result.counters == IngestCounters(records_skipped_non_flow=len(lines))
    assert (result.windows_written, result.windows_partial, result.tars_finalized) == (0, 0, 0)
    assert list(tmp_path.iterdir()) == []


def test_run_ingest_propagates_write_errors(eve_file, tmp_path):
    target = tmp_path / "blocked"
    target.write_text("not a directory")
    with open(eve_file, "rb") as fh:
        lines = fh.read().splitlines()
    with pytest.raises(OSError):
        run_ingest(iter(lines), None, target, window_packets=1 << 12)


def test_run_ingest_finalizes_open_tar_when_lines_raise(tmp_path):
    def lines():
        yield from itertools.islice(generate(ELEPHANT_INPUT), 3_000)
        raise OSError("input went away")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(OSError, match="input went away"):
            run_ingest(lines(), None, tmp_path)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    tars = list(tmp_path.glob("*.tar"))
    members = [len(list(iter_archive(tar))) for tar in tars]
    assert len(tars) > 1 and 0 < min(members) < 64  # the TAR that was open
    assert all(verify_archive(tar) == [] for tar in tars)


def tar_packets(tar) -> int:
    return sum(decode_matrix(blob)[1].packet_total for _, blob in iter_archive(tar))


def test_second_ingest_in_the_same_second_keeps_the_first_tar(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)
    first = run_ingest(generate(GenConfig(n_flows=50, seed=1)), None, tmp_path)
    (tar,) = tmp_path.glob("*.tar")
    with pytest.raises(FileExistsError, match=tar.name):
        run_ingest(generate(GenConfig(n_flows=70, seed=2)), None, tmp_path)
    assert list(tmp_path.glob("*.tar")) == [tar]
    assert verify_archive(tar) == []
    assert tar_packets(tar) == first.packets_total == 5_000


def test_cli_ingest_from_file(eve_file, tmp_path, key_file):
    out = tmp_path / "out"
    proc = run_cli("ingest", "--input", str(eve_file), "--key", str(key_file),
                   "--out", str(out), "--window-bits", "12")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["records_ok"] == 5000
    assert summary["packets_total"] == 500_000
    assert summary["windows_written"] == 500_000 // 4096 + 1
    assert list(out.glob("*.tar"))
    assert eve_file.stat().st_size > shard.CHUNK_BYTES  # parsed by forked workers
    assert summary["worker_peak_rss_bytes"] > 0


@pytest.mark.parametrize("window_bits", ["0", "17"])
def test_cli_ingest_refuses_a_flow_spanning_too_many_windows(window_bits, tmp_path):
    line = (
        b'{"event_type":"flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2",'
        b'"flow":{"pkts_toserver":18446744073709551615,"pkts_toclient":0}}\n'
    )
    path = tmp_path / "huge.ndjson"
    path.write_bytes(line + FLOW_LINE + b"\n")
    proc = subprocess.run(
        [sys.executable, "-m", "flowmat", "ingest", "--input", str(path), "--no-anon",
         "--out", str(tmp_path / "out"), "--window-bits", window_bits],
        capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["records_skipped_window_span"] == 1
    assert summary["records_ok"] == 1
    assert summary["lines_consumed"] == 2
    assert summary["packets_total"] == 10


def test_cli_ingest_from_stdin(eve_file, tmp_path):
    out = tmp_path / "out"
    proc = run_cli("ingest", "--input", "-", "--no-anon", "--out", str(out),
                   input_bytes=eve_file.read_bytes())
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["records_ok"] == 5000
    assert summary["worker_peak_rss_bytes"] == 0  # a stream is parsed in process


def test_cli_ingest_refuses_without_key(eve_file, tmp_path):
    import os

    env = {k: v for k, v in os.environ.items() if k != "FLOWMAT_KEY"}
    proc = run_cli("ingest", "--input", str(eve_file), "--out", str(tmp_path / "o"), env=env)
    assert proc.returncode != 0
    assert b"key" in proc.stderr.lower()


def test_cli_ingest_missing_input(tmp_path):
    proc = run_cli("ingest", "--input", str(tmp_path / "nope"), "--no-anon",
                   "--out", str(tmp_path / "o"))
    assert proc.returncode != 0
    assert b"nope" in proc.stderr


def test_cli_ingest_empty_input(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("ingest", "--input", "-", "--no-anon", "--out", str(out), input_bytes=b"")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["windows_written"] == 0
    assert summary["tars_finalized"] == 0
    assert not list(out.glob("*.tar"))


def assert_one_line_error(proc, name: str) -> None:
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"Error: ") and name.encode() in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_cli_ingest_out_is_a_file(eve_file, tmp_path):
    out = tmp_path / "taken"
    out.write_bytes(b"not a directory")
    proc = run_cli("ingest", "--input", str(eve_file), "--no-anon", "--out", str(out))
    assert_one_line_error(proc, "taken")
    assert out.read_bytes() == b"not a directory"


def test_cli_ingest_from_a_socket_into_a_bad_out_removes_the_socket(tmp_path):
    taken, sock = tmp_path / "taken", tmp_path / "s.sock"
    taken.write_bytes(b"not a directory")
    proc = run_cli("ingest", "--socket", str(sock), "--no-anon", "--out", str(taken / "sub"))
    assert_one_line_error(proc, "taken")
    assert not sock.exists()


def test_cli_ingest_socket_in_missing_directory(tmp_path):
    sock = tmp_path / "missing" / "s.sock"
    proc = run_cli("ingest", "--socket", str(sock), "--no-anon", "--out", str(tmp_path / "o"))
    assert_one_line_error(proc, str(sock))


def test_cli_ingest_refuses_a_socket_another_process_listens_on(tmp_path):
    sock = tmp_path / "s.sock"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as live:
        live.bind(str(sock))
        live.listen(1)
        inode = sock.stat().st_ino
        # a second ingest that took the path would listen on it until killed
        proc = run_cli("ingest", "--socket", str(sock), "--no-anon", "--out", str(tmp_path / "o"),
                       timeout=60)
        assert_one_line_error(proc, str(sock))
        assert sock.stat().st_ino == inode


def test_cli_ingest_socket_path_too_long_keeps_its_reason(tmp_path):
    # past sun_path's 108 bytes bind raises an OSError without an errno
    sock = str(tmp_path / ("s" * max(1, 125 - len(str(tmp_path)) - 1)))
    proc = run_cli("ingest", "--socket", sock, "--no-anon", "--out", str(tmp_path / "o"))
    assert_one_line_error(proc, sock)
    assert b"too long" in proc.stderr
    assert b"None" not in proc.stderr


def test_cli_gen_out_in_missing_directory(tmp_path):
    proc = run_cli("gen", "--flows", "10", "--out", str(tmp_path / "missing" / "x.ndjson"))
    assert_one_line_error(proc, "x.ndjson")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("to", ["stdout", "--out"])
def test_cli_gen_write_error_is_one_line(to):
    # /dev/full fails every write with ENOSPC once the buffer is flushed
    if to == "stdout":
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "flowmat", "gen", "--flows", "20000"],
                                  stdout=full, stderr=subprocess.PIPE)
    else:
        proc = run_cli("gen", "--flows", "20000", "--out", "/dev/full")
    assert_one_line_error(proc, "No space left on device")


def test_cli_gen_into_a_closed_pipe_is_silent():
    proc = subprocess.Popen([sys.executable, "-m", "flowmat", "gen", "--flows", "200000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10)
    proc.stdout.close()  # as `flowmat gen | head -c 10` does
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    proc.stderr.close()
    assert stderr == b""


def test_cli_second_ingest_in_the_same_second_is_an_error(eve_file, tmp_path):
    # each run's clock reads FIXED_CLOCK, so both name their first TAR alike
    clock = f"import time; time.time = lambda: {FIXED_CLOCK}; from flowmat.cli import main; main()"
    runs = [
        subprocess.run([sys.executable, "-c", clock, "ingest", "--input", str(eve_file),
                        "--no-anon", "--out", str(tmp_path), "--per-tar", "1000"],
                       capture_output=True)
        for _ in range(2)
    ]
    assert runs[0].returncode == 0, runs[0].stderr
    assert_one_line_error(runs[1], "File exists")
    (tar,) = tmp_path.glob("*.tar")
    assert verify_archive(tar) == []
    assert tar_packets(tar) == json.loads(runs[0].stdout)["packets_total"] == 500_000


def test_cli_gen_deterministic(tmp_path):
    a = run_cli("gen", "--flows", "100", "--seed", "5")
    b = run_cli("gen", "--flows", "100", "--seed", "5")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert len(a.stdout.splitlines()) == 100


def _ingest_archive(eve_file, tmp_path):
    out = tmp_path / "arch"
    run_ingest(iter(eve_file.read_bytes().splitlines()), CryptoPan(KEY), out,
               window_packets=1 << 12, per_tar=16)
    return sorted(out.glob("*.tar"))[0]


def test_cli_stats(eve_file, tmp_path):
    tar = _ingest_archive(eve_file, tmp_path)
    proc = run_cli("stats", str(tar))
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 17  # 16 members + aggregate
    assert records[-1]["aggregate"] is True
    assert all(r["packet_total"] == 4096 for r in records[:-1])


def test_cli_verify_pass_and_fail(eve_file, tmp_path):
    tar = _ingest_archive(eve_file, tmp_path)
    proc = run_cli("verify", str(tar))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"OK"

    # flip one byte near the end of the first member (inside the vals section)
    import tarfile

    with tarfile.open(tar) as t:
        first_size = t.getmembers()[0].size
    corrupted = bytearray(tar.read_bytes())
    corrupted[512 + first_size - 3] ^= 0xFF
    bad = tmp_path / "bad.tar"
    bad.write_bytes(bytes(corrupted))
    proc = run_cli("verify", str(bad))
    assert proc.returncode == 1
    assert b"00000000000000000000.grb" in proc.stderr


def test_cli_verify_and_stats_report_corrupt_header(eve_file, tmp_path):
    tar = _ingest_archive(eve_file, tmp_path)
    first_size = len(next(iter_archive(tar))[1])
    second_header = 512 + -(-first_size // 512) * 512
    corrupted = bytearray(tar.read_bytes())
    corrupted[second_header + 10] ^= 0x01  # one bit of the second member's name
    bad = tmp_path / "bad.tar"
    bad.write_bytes(bytes(corrupted))

    proc = run_cli("verify", str(bad))
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert b"OK" not in proc.stdout
    assert f"FAIL byte {second_header}".encode() in proc.stderr
    assert b"after member 00000000000000000000.grb" in proc.stderr

    proc = run_cli("stats", str(bad))
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["member"] for r in records[:-1]] == [
        "00000000000000000000.grb", f"byte {second_header}"]
    assert "error" in records[1]
    assert records[-1]["aggregate"] is True and records[-1]["members"] == 1


@pytest.mark.parametrize("command", ["verify", "stats"])
def test_cli_read_commands_missing_path(command, tmp_path):
    proc = run_cli(command, str(tmp_path / "nope.tar"))
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"Error: ") and b"nope.tar" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == b""


def test_verify_archive_reports_failures(eve_file, tmp_path):
    tar = _ingest_archive(eve_file, tmp_path)
    assert verify_archive(tar) == []


def test_run_bench_report_shape(eve_file, tmp_path):
    report = run_bench(eve_file, CryptoPan(KEY), tmp_path, window_packets=1 << 12)
    assert report["n_records"] == 5000
    assert set(report["stages"]) == {"parse", "anonymize", "window_build", "encode_archive"}
    for stage in report["stages"].values():
        assert stage["records_per_second"] > 0
    assert report["reliable"] is False  # < 1e5 records
    assert report["windows_written"] == 500_000 // 4096 + 1
    assert sum(s["seconds"] for s in report["stages"].values()) <= report["end_to_end"]["seconds"]
    mb = eve_file.stat().st_size / 1e6
    assert report["input_mb_per_second"] == pytest.approx(
        mb / report["end_to_end"]["seconds"], rel=1e-3)
    raw = blob = 0
    for tar in tmp_path.glob("*.tar"):
        for _, data in iter_archive(tar):
            matrix, _ = decode_matrix(data)
            raw += sum(a.nbytes for a in (matrix.rows_present, matrix.row_ptr,
                                          matrix.col_ids, matrix.vals))
            blob += len(data)
    assert report["compression_ratio"] == pytest.approx(raw / blob, abs=1e-3)


def test_run_bench_counts_the_bytes_it_ingested(eve_file, tmp_path, monkeypatch):
    log = tmp_path / "eve.json"
    log.write_bytes(eve_file.read_bytes())
    size = log.stat().st_size

    def ingest_while_the_log_grows(*args, **kwargs):
        with open(log, "ab") as fh:
            fh.write(eve_file.read_bytes())
        return run_ingest(*args, **kwargs)

    monkeypatch.setattr("flowmat.pipeline.run_ingest", ingest_while_the_log_grows)
    report = run_bench(log, None, tmp_path / "o", window_packets=1 << 12)
    assert log.stat().st_size == 2 * size
    assert report["n_records"] == 5000
    assert report["input_mb_per_second"] == pytest.approx(
        size / 1e6 / report["end_to_end"]["seconds"], rel=1e-3)


def test_cli_bench_missing_input(tmp_path):
    proc = run_cli("bench", "--input", str(tmp_path / "nope"), "--no-anon",
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"Error: cannot open input") and b"nope" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_cli_bench_refuses_stdin(eve_file, tmp_path):
    out = tmp_path / "o"
    proc = run_cli("bench", "--input", "-", "--no-anon", "--out", str(out),
                   input_bytes=eve_file.read_bytes())
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"Error: cannot open input '-'")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == b""
    assert not out.exists()


def test_cli_bench_smoke(eve_file, tmp_path):
    proc = run_cli("bench", "--input", str(eve_file), "--no-anon",
                   "--out", str(tmp_path), "--window-bits", "12")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert "end_to_end" in report
    assert b"unreliable" in proc.stderr


def strict_json(text: bytes):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def test_cli_bench_of_a_sharded_file_prints_strict_json(eve_file, tmp_path, key_file):
    assert eve_file.stat().st_size > shard.CHUNK_BYTES
    proc = run_cli("bench", "--input", str(eve_file), "--key", str(key_file),
                   "--out", str(tmp_path), "--window-bits", "12")
    assert proc.returncode == 0, proc.stderr
    report = strict_json(proc.stdout)
    for stage in report["stages"].values():
        assert math.isfinite(stage["records_per_second"]) and stage["records_per_second"] > 0


@pytest.mark.parametrize("kind", ["empty", "chunks"])
def test_cli_bench_without_anon_prints_strict_json(kind, eve_file, tmp_path):
    path = tmp_path / "empty.ndjson"
    if kind == "empty":
        path.write_bytes(b"")
    else:
        path = eve_file
        assert path.stat().st_size > 2 * shard.CHUNK_BYTES
    proc = run_cli("bench", "--input", str(path), "--no-anon",
                   "--out", str(tmp_path / "out"), "--window-bits", "12")
    assert proc.returncode == 0, proc.stderr
    report = strict_json(proc.stdout)
    # a stage that took no measurable time has no rate and takes no part in the extremes
    rates = {name: stage["records_per_second"] for name, stage in report["stages"].items()}
    timed = {name: rate for name, rate in rates.items() if rate is not None}
    assert all(math.isfinite(rate) and rate >= 0 for rate in timed.values())
    assert report["fastest_stage"] in timed
    assert report["min_stage_rate"] == min(timed.values())
    if kind == "empty":
        assert rates["anonymize"] is None and rates["window_build"] is None
        assert report["stages"]["anonymize"]["seconds"] == 0


def test_cli_sigterm_finalizes_the_open_tar(tmp_path):
    sock, out = tmp_path / "eve.sock", tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "flowmat", "ingest", "--socket", str(sock), "--no-anon",
         "--out", str(out), "--window-bits", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60
        while not sock.exists():
            assert proc.poll() is None and time.monotonic() < deadline, "no socket"
            time.sleep(0.05)
        # two whole batches of 512 lines of 7 packets: 7 windows of 2^10 packets
        lines = generate(GenConfig(n_flows=1024, pkts_per_flow=7, seed=4))
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as peer:
            peer.connect(str(sock))
            peer.sendall(b"".join(line + b"\n" for line in lines))
        while not list(out.glob("*.tar")):
            assert proc.poll() is None and time.monotonic() < deadline, "no TAR"
            time.sleep(0.05)
        time.sleep(1.0)  # the second batch is windowed
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 143, stderr
    assert stderr.decode().splitlines() == ["Terminated: stopped on SIGTERM"]
    assert stdout == b""
    (tar,) = out.glob("*.tar")
    assert verify_archive(tar) == []
    metas = [decode_matrix(blob)[1] for _, blob in iter_archive(tar)]
    assert [meta.packet_total for meta in metas] == [1 << 10] * 7
    assert not sock.exists()


def test_cli_bench_sigterm_finalizes_the_open_tar(eve_file, tmp_path):
    # the first TAR write then sleeps, so the signal finds the bench mid-ingest
    # with an open TAR and its parse workers running
    out, mark = tmp_path / "out", tmp_path / "written"
    slow = ("import pathlib, time; from flowmat.archive import ArchiveWriter; "
            "extend = ArchiveWriter.extend; ArchiveWriter.extend = lambda self, *args: "
            f"(extend(self, *args), pathlib.Path({str(mark)!r}).touch(), time.sleep(60))[0]; "
            "from flowmat.cli import main; main()")
    proc = subprocess.Popen(
        [sys.executable, "-c", slow, "bench", "--input", str(eve_file), "--no-anon",
         "--out", str(out), "--window-bits", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60
        while not mark.exists():
            assert proc.poll() is None and time.monotonic() < deadline, "no TAR write"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 143, stderr
    assert stderr.decode().splitlines() == ["Terminated: stopped on SIGTERM"]
    assert stdout == b""
    tars = list(out.glob("*.tar"))
    assert tars and all(verify_archive(tar) == [] for tar in tars)


def test_cli_gen_sigterm_is_one_line(tmp_path):
    path = tmp_path / "big.ndjson"
    proc = subprocess.Popen(
        [sys.executable, "-m", "flowmat", "gen", "--flows", "1000000000", "--out", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60
        while not (path.exists() and path.stat().st_size):
            assert proc.poll() is None and time.monotonic() < deadline, "no output"
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 143, stderr
    assert stderr.decode().splitlines() == ["Terminated: stopped on SIGTERM"]
    assert stdout == b""


def test_cli_bench_refuses_a_fifo_without_opening_it(tmp_path):
    fifo = tmp_path / "eve.fifo"
    os.mkfifo(fifo)
    # with no writer, opening the FIFO would block forever
    proc = subprocess.run([sys.executable, "-m", "flowmat", "bench", "--input", str(fifo),
                           "--no-anon", "--out", str(tmp_path / "o")],
                          capture_output=True, timeout=60)
    assert_one_line_error(proc, "eve.fifo")
    assert proc.stdout == b""
    assert not (tmp_path / "o").exists()


def test_commands_restore_the_callers_sigterm_handler(tmp_path):
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        runner = CliRunner()
        assert runner.invoke(main, ["gen", "--flows", "3"]).exit_code == 0
        assert runner.invoke(main, ["verify", str(tmp_path / "nope.tar")]).exit_code == 1
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)


@pytest.mark.parametrize("command", ["ingest", "bench"])
@pytest.mark.parametrize("option, value", [
    ("--per-tar", "0"), ("--per-tar", "-3"), ("--window-bits", "-1"), ("--window-bits", "64"),
])
def test_cli_rejects_out_of_range_options(command, option, value, eve_file, tmp_path):
    out = tmp_path / "out"
    proc = run_cli(command, "--input", str(eve_file), "--no-anon", "--out", str(out),
                   option, value)
    assert proc.returncode == 2
    assert b"Invalid value for '" + option.encode() in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "bench"])
def test_cli_key_with_no_anon_is_a_usage_error(command, eve_file, key_file, tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, "--input", str(eve_file), "--key", str(key_file),
                                       "--no-anon", "--out", str(out)])
    assert result.exit_code == 2
    assert "--key and --no-anon exclude each other" in result.output
    assert not out.exists()


def test_cli_no_anon_with_a_key_in_the_environment_runs(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["ingest", "--input", "-", "--no-anon", "--out", str(out)],
                                input=FLOW_LINE, env={"FLOWMAT_KEY": KEY.hex()})
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["records_ok"] == 1


@pytest.fixture
def key_file(tmp_path):
    path = tmp_path / "key.bin"
    path.write_bytes(KEY)
    return path
