"""End-to-end wiring: parse -> anonymize -> window/build -> encode/archive.

Ingest is a generator chain over column batches of flow records, each held
as four numpy columns (src, dst, toserver, toclient). Each batch is
anonymized with one Crypto-PAn pass over its distinct addresses; the
windower cuts the batch's directed entries at window boundaries and builds
the windows the batch completes with one segmented sort per group of up to
MAX_WINDOWS_PER_BUILD; each group is encoded into its blobs at once and
written to the TARs with one write per TAR it reaches. One batch in each
process, a pipe's worth of results per parse worker, the open window and
one group with its blobs are held at a time, so memory stays flat for any
input size.

Parsing and anonymizing are the stages that may leave this process. Every
input comes in chunks, each parsed and anonymized into one batch
(flowmat.shard): a regular file, whatever its size, in byte chunks that
forked workers take in parallel; a stream (stdin, a socket, any other line
iterable) in blocks of lines, in this process. Either way the batches arrive
in input order and window, build, encode and archive run sequentially in
this process, so the archives are the same byte for byte.

Every ingest times its four stages with a few clock reads per batch and
per group, never per window or line. The benchmark harness, run_bench, is
one such ingest of a recorded file, read in chunks like any other, with its
rates derived from those timers. verify_archive, which reads an archive
back, lives in flowmat.archive and is imported here too.
"""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from flowmat import shard
from flowmat.archive import DEFAULT_PER_TAR, ArchiveWriter, encode_group, verify_archive
from flowmat.cryptopan import CryptoPan
from flowmat.eve import FileLineSource, IngestCounters, open_source
from flowmat.window import DEFAULT_WINDOW_BITS, Windower

STAGES = ("parse", "anonymize", "window_build", "encode_archive")


def peak_rss_bytes(who: int = resource.RUSAGE_SELF) -> int:
    """The peak RSS of this process, or with RUSAGE_CHILDREN of the largest child it reaped."""
    return resource.getrusage(who).ru_maxrss * 1024


@dataclass
class IngestResult:
    counters: IngestCounters
    windows_written: int = 0
    windows_partial: int = 0
    tars_finalized: int = 0
    packets_total: int = 0
    peak_rss_bytes: int = 0
    # the largest peak RSS of a child this process reaped, once parse workers
    # were forked; 0 when none were
    worker_peak_rss_bytes: int = 0
    seconds: float = 0.0
    raw_bytes: int = 0   # the matrices' four arrays, as the blob sections hold them
    blob_bytes: int = 0
    stage_seconds: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    # CPU seconds the chunks of the input took to parse and to anonymize,
    # summed over the processes that did them
    worker_cpu_seconds: dict = field(
        default_factory=lambda: dict.fromkeys(("parse", "anonymize"), 0.0))

    def as_dict(self) -> dict:
        return {
            **self.counters.as_dict(),
            "lines_consumed": self.counters.lines_consumed,
            "windows_written": self.windows_written,
            "windows_partial": self.windows_partial,
            "tars_finalized": self.tars_finalized,
            "packets_total": self.packets_total,
            "peak_rss_bytes": self.peak_rss_bytes,
            "worker_peak_rss_bytes": self.worker_peak_rss_bytes,
            "raw_bytes": self.raw_bytes,
            "blob_bytes": self.blob_bytes,
            "seconds": round(self.seconds, 3),
            "stage_seconds": {k: round(v, 6) for k, v in self.stage_seconds.items()},
            "worker_cpu_seconds": {k: round(v, 6) for k, v in self.worker_cpu_seconds.items()},
        }


def run_ingest(
    lines,
    anon: CryptoPan | None,
    out_dir: str | Path,
    window_packets: int = 1 << DEFAULT_WINDOW_BITS,
    per_tar: int = DEFAULT_PER_TAR,
) -> IngestResult:
    """Drain EVE lines into rotating TARs of matrix blobs.

    lines is a line iterable or a source from open_source. A FileLineSource
    of a regular file is parsed and anonymized in byte chunks, by forked
    workers, up to the size the file had when it was opened
    (shard.parse_file); any other line iterable (stdin, a socket, a list) in
    blocks of lines in this process (shard.parse_stream). Both give the same
    records in the same order and the same counters. When a stage, the lines
    or a parse worker fails, the open TAR is finalized with the windows
    written so far, every worker is stopped, and the exception propagates;
    the open window is not written.

    The stage timers are laps of one clock, so they sum to at most
    result.seconds. parse includes reading the source; window_build includes
    the matrix build, encode_archive includes the TAR writes. The clock is
    read once per chunk and once per group of windows. The wait for each
    chunk is split between parse and anonymize: anonymize gets the smaller
    of its share of the wait, in the ratio of the CPU seconds spent on each,
    and its own CPU seconds, so a stream's read waits stay in parse. Those
    CPU seconds are summed in result.worker_cpu_seconds.
    """
    start = time.perf_counter()
    counters = IngestCounters()
    result = IngestResult(counters=counters)
    stages = result.stage_seconds
    windower = Windower(window_packets)
    writer = ArchiveWriter(out_dir, per_tar=per_tar)
    mark = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stages[stage] += now - mark
        mark = now

    def lap_chunk(cpu: tuple[float, float]) -> None:
        nonlocal mark
        now = time.perf_counter()
        parse_s, anonymize_s = cpu
        anonymize_share = anonymize_s / (parse_s + anonymize_s) if anonymize_s > 0 else 0.0
        anonymize_wait = min((now - mark) * anonymize_share, anonymize_s)
        stages["parse"] += now - mark - anonymize_wait
        stages["anonymize"] += anonymize_wait
        mark = now
        result.worker_cpu_seconds["parse"] += parse_s
        result.worker_cpu_seconds["anonymize"] += anonymize_s

    def write(group, first_seq, packet_totals, created) -> None:
        lap("window_build")
        blobs = encode_group(group, first_seq, packet_totals, created)
        result.windows_written += len(blobs)
        result.packets_total += sum(packet_totals)
        result.raw_bytes += group.nbytes
        result.blob_bytes += sum(map(len, blobs))
        result.tars_finalized += len(writer.extend(blobs, first_seq, created))
        lap("encode_archive")

    def window(batch) -> None:
        # a helper, so no group outlives its write while the next chunk is awaited
        for windows in windower.push(batch):
            write(*windows)
        lap("window_build")

    sharded = isinstance(lines, FileLineSource) and lines.size is not None
    if sharded:
        chunks = shard.parse_file(lines.fileno(), lines.size, anon)
    else:
        chunks = shard.parse_stream(lines, anon)
    try:
        with contextlib.closing(chunks):
            for batch, chunk_counters, cpu in chunks:
                counters.add(chunk_counters)
                lap_chunk(cpu)
                window(batch)
        lap("parse")
        counters.refuse(windower.flows_refused)
        tail = windower.flush()
        if tail is not None:
            write(*tail)
            result.windows_partial = 1
    except BaseException:
        # the open TAR still gets its end-of-archive blocks; the original error
        # is the one raised, even when finalizing fails too
        with contextlib.suppress(OSError):
            writer.close()
        raise
    if writer.close() is not None:
        result.tars_finalized += 1
    lap("encode_archive")

    result.peak_rss_bytes = peak_rss_bytes()
    if sharded and shard.forks(lines.size):  # closing chunks reaped the workers
        result.worker_peak_rss_bytes = peak_rss_bytes(resource.RUSAGE_CHILDREN)
    result.seconds = time.perf_counter() - start
    return result


# --- benchmark harness -----------------------------------------------------

MIN_RELIABLE_RECORDS = 100_000
MEMORY_CEILING_BYTES = 512 * 1024 * 1024


def _rounded(value: float | None, digits: int = 1) -> float | None:
    return None if value is None else round(value, digits)


def run_bench(
    input_path: str | Path,
    anon: CryptoPan | None,
    out_dir: str | Path,
    window_packets: int = 1 << DEFAULT_WINDOW_BITS,
    per_tar: int = DEFAULT_PER_TAR,
) -> dict:
    """One ingest of a recorded file, read in chunks like any other, reported stage by stage.

    Stage rates come from the ingest's own timers: parse is per input line,
    the other stages per flow record. A stage that took no measurable time
    has no rate (null) and is left out of fastest_stage and min_stage_rate,
    so the report stays strict JSON. End to end covers opening the file
    through closing the last TAR. The compression ratio is the matrices'
    raw section bytes over the blob bytes written. Stdin ("-") and any other
    path that is not a regular file are refused before any input is read:
    the bench needs a file. Its MB/s is of the bytes ingest read: the
    file's size when it was opened, whatever the file grows to meanwhile.
    """
    path = str(input_path)
    if path == "-":
        raise OSError("cannot open input '-': bench reads a recorded file, not stdin")
    if Path(path).exists() and not Path(path).is_file():  # opening a FIFO waits for a writer
        raise OSError(f"cannot open input {path!r}: bench reads a regular file")
    start = time.perf_counter()
    source = open_source(path)
    try:
        result = run_ingest(
            source, anon, out_dir, window_packets=window_packets, per_tar=per_tar
        )
    finally:
        source.close()
    e2e_s = time.perf_counter() - start

    counters = result.counters
    n_lines, n_records = counters.lines_consumed, counters.records_ok
    stage_rates = {
        name: (n_lines if name == "parse" else n_records) / sec
        for name, sec in result.stage_seconds.items() if sec > 0
    }
    min_rate = min(stage_rates.values(), default=None)
    e2e_rate = n_lines / e2e_s
    return {
        "n_lines": n_lines,
        "n_records": n_records,
        "counters": counters.as_dict(),
        "stages": {
            name: {"seconds": round(sec, 6), "records_per_second": _rounded(stage_rates.get(name))}
            for name, sec in result.stage_seconds.items()
        },
        "end_to_end": {"seconds": round(e2e_s, 6), "records_per_second": round(e2e_rate, 1)},
        "input_mb_per_second": round(source.size / 1e6 / e2e_s, 3),
        "compression_ratio": (
            round(result.raw_bytes / result.blob_bytes, 3) if result.blob_bytes else None
        ),
        "windows_written": result.windows_written,
        "fastest_stage": max(stage_rates, key=stage_rates.get, default=None),
        "min_stage_rate": _rounded(min_rate),
        "e2e_within_min_stage": min_rate is None or e2e_rate <= min_rate,
        "peak_rss_bytes": result.peak_rss_bytes,
        "under_memory_ceiling": result.peak_rss_bytes < MEMORY_CEILING_BYTES,
        "reliable": n_records >= MIN_RELIABLE_RECORDS,
    }
