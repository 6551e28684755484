"""End-to-end wiring: parse -> anonymize -> window/build -> encode/archive.

Ingest is a generator chain over column batches of flow records, each held
as four numpy columns (src, dst, toserver, toclient). Each batch is
anonymized with one Crypto-PAn pass over its distinct addresses; the
windower cuts the batch's directed entries at window boundaries and builds
every window the batch completes with one segmented sort; each matrix is
then encoded and appended to the current TAR. One batch in each process,
a pipe's worth of results per parse worker and the open window are held at
a time, so memory stays flat for any input size.

Parsing and anonymizing are the stages that may leave this process. A
regular input file, whatever its size, is cut into byte chunks that forked
workers parse and anonymize in parallel, one batch per chunk
(flowmat.shard). A stream (stdin, a socket, any other line iterable) is
parsed here in batches of at most BATCH_RECORDS records, and each batch is
anonymized here. Either way the batches arrive in input order and window,
build, encode and archive run sequentially in this process, so the archives
are the same byte for byte.

Every ingest times its four stages with a few clock reads per batch and
per window, never per line. The bench is one such ingest of a recorded file,
streamed from disk, with its rates derived from those timers.
"""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from flowmat import shard
from flowmat.archive import (
    DEFAULT_PER_TAR, ArchiveWriter, ContainerError, IntegrityError, decode_and_reencode,
    encode_matrix, iter_member_groups,
)
from flowmat.cryptopan import CryptoPan, anonymize_flows
from flowmat.eve import FileLineSource, IngestCounters, open_source, parse_columns
from flowmat.hypermat import total_sum
from flowmat.window import DEFAULT_WINDOW_BITS, Windower

# records per batch of a stream, and so per anonymize_flows call, which
# deduplicates addresses per batch; a file's batches are its chunks (flowmat.shard)
BATCH_RECORDS = 512

STAGES = ("parse", "anonymize", "window_build", "encode_archive")


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class IngestResult:
    counters: IngestCounters
    windows_written: int = 0
    windows_partial: int = 0
    tars_finalized: int = 0
    packets_total: int = 0
    peak_rss_bytes: int = 0
    seconds: float = 0.0
    raw_bytes: int = 0   # the matrices' four arrays, as the blob sections hold them
    blob_bytes: int = 0
    stage_seconds: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    # CPU seconds the chunks of a file took to parse and to anonymize, summed
    # over the processes that did them; 0 for a stream
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
            "seconds": round(self.seconds, 3),
            "stage_seconds": {k: round(v, 6) for k, v in self.stage_seconds.items()},
            "worker_cpu_seconds": {k: round(v, 6) for k, v in self.worker_cpu_seconds.items()},
        }


def _parse_batches(lines, counters: IngestCounters):
    """Column batches of a stream's lines, in order, of at most BATCH_RECORDS records each."""
    return parse_columns(lines, counters, BATCH_RECORDS)


def run_ingest(
    lines,
    anon: CryptoPan | None,
    out_dir: str | Path,
    window_packets: int = 1 << DEFAULT_WINDOW_BITS,
    per_tar: int = DEFAULT_PER_TAR,
) -> IngestResult:
    """Drain EVE lines into rotating TARs of matrix blobs.

    lines is a line iterable or a source from open_source. A FileLineSource
    of a regular file is parsed and anonymized by forked workers, up to the
    size the file had when it was opened (flowmat.shard); any other line
    iterable (stdin, a socket, a list) is parsed and anonymized in this
    process. Both give the same records in the same order and the same
    counters. When a stage, the lines or a parse worker fails, the open TAR
    is finalized with the windows written so far, every worker is stopped,
    and the exception propagates; the open window is not written.

    The stage timers are laps of one clock, so they sum to at most
    result.seconds. parse includes reading the source; window_build includes
    the matrix build, encode_archive includes the TAR writes. For a file,
    the wait for each chunk is split between parse and anonymize in the
    ratio of the CPU seconds the chunk's worker spent on each, and those CPU
    seconds are summed in result.worker_cpu_seconds.
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
        stages["parse"] += (now - mark) * (1 - anonymize_share)
        stages["anonymize"] += (now - mark) * anonymize_share
        mark = now
        result.worker_cpu_seconds["parse"] += parse_s
        result.worker_cpu_seconds["anonymize"] += anonymize_s

    def write(matrix, meta) -> None:
        lap("window_build")
        blob = encode_matrix(matrix, meta)
        result.windows_written += 1
        result.packets_total += meta.packet_total
        result.raw_bytes += (
            matrix.rows_present.nbytes + matrix.row_ptr.nbytes
            + matrix.col_ids.nbytes + matrix.vals.nbytes
        )
        result.blob_bytes += len(blob)
        if writer.append(blob, meta) is not None:
            result.tars_finalized += 1
        lap("encode_archive")

    def window(batch) -> None:
        for matrix, meta in windower.push(batch):
            write(matrix, meta)
        lap("window_build")

    try:
        if isinstance(lines, FileLineSource) and lines.size is not None:
            chunks = shard.parse_file(lines.fileno(), lines.size, counters, anon)
            with contextlib.closing(chunks):
                for batches, cpu in chunks:
                    lap_chunk(cpu)
                    for batch in batches:
                        window(batch)
        else:
            with contextlib.closing(_parse_batches(lines, counters)) as batches:
                for batch in batches:
                    lap("parse")
                    batch = anonymize_flows(anon, batch)
                    lap("anonymize")
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
    result.seconds = time.perf_counter() - start
    return result


# --- benchmark harness -----------------------------------------------------

MIN_RELIABLE_RECORDS = 100_000
MEMORY_CEILING_BYTES = 512 * 1024 * 1024


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else float("inf")


def run_bench(
    input_path: str | Path,
    anon: CryptoPan | None,
    out_dir: str | Path,
    window_packets: int = 1 << DEFAULT_WINDOW_BITS,
    per_tar: int = DEFAULT_PER_TAR,
) -> dict:
    """One streamed ingest of a recorded file, reported stage by stage.

    Stage rates come from the ingest's own timers: parse is per input line,
    the other stages per flow record. End to end covers opening the file
    through closing the last TAR. The compression ratio is the matrices'
    raw section bytes over the blob bytes written. Stdin ("-") is refused
    before any input is read: the bench needs a file, whose size it reports.
    """
    if str(input_path) == "-":
        raise OSError("cannot open input '-': bench reads a recorded file, not stdin")
    start = time.perf_counter()
    source = open_source(str(input_path))
    try:
        result = run_ingest(
            source, anon, out_dir, window_packets=window_packets, per_tar=per_tar
        )
    finally:
        source.close()
    e2e_s = time.perf_counter() - start
    input_bytes = Path(input_path).stat().st_size

    counters = result.counters
    n_lines, n_records = counters.lines_consumed, counters.records_ok
    stage_rates = {
        name: _rate(n_lines if name == "parse" else n_records, sec)
        for name, sec in result.stage_seconds.items()
    }
    e2e_rate = _rate(n_lines, e2e_s)
    return {
        "n_lines": n_lines,
        "n_records": n_records,
        "counters": counters.as_dict(),
        "stages": {
            name: {"seconds": round(sec, 6), "records_per_second": round(stage_rates[name], 1)}
            for name, sec in result.stage_seconds.items()
        },
        "end_to_end": {"seconds": round(e2e_s, 6), "records_per_second": round(e2e_rate, 1)},
        "input_mb_per_second": round(_rate(input_bytes / 1e6, e2e_s), 3),
        "compression_ratio": (
            round(result.raw_bytes / result.blob_bytes, 3) if result.blob_bytes else None
        ),
        "windows_written": result.windows_written,
        "fastest_stage": max(stage_rates, key=stage_rates.get),
        "min_stage_rate": round(min(stage_rates.values()), 1),
        "e2e_within_min_stage": e2e_rate <= min(stage_rates.values()),
        "peak_rss_bytes": result.peak_rss_bytes,
        "under_memory_ceiling": result.peak_rss_bytes < MEMORY_CEILING_BYTES,
        "reliable": n_records >= MIN_RELIABLE_RECORDS,
    }


def verify_archive(path: str | Path) -> list[str]:
    """Decode, re-encode, and cross-check every member; returns failures.

    Members come in groups from iter_member_groups. For each small member a
    group accepted, every LZ4 block is compressed again from the group's
    decoded buffer and compared with the stored bytes, and the group's
    packet sum is compared with the header. Every other member, one over
    GROUP_MEMBER_ENTRIES entries or one the grouped checks flagged, goes
    through decode_and_reencode alone, the per-member path that gives the
    same failures. Recompressing the stored blocks, rather than encoding the
    matrix again, lets blobs of either version verify.

    A corrupt or cut TAR adds one failure, naming the byte offset and the
    last good member, after the failures of the members before it.
    """
    failures: list[str] = []
    try:
        for group in iter_member_groups(path):
            grouped = zip(group.reencodes(), group.packet_sums)
            for name, blob, meta in zip(group.names, group.blobs, group.metas):
                if meta is None:
                    failure = _verify_member(name, blob)
                else:
                    reencodes, total = next(grouped)
                    failure = (_check_total(name, meta, total) if reencodes
                               else f"{name}: re-encode is not bit-identical")
                if failure:
                    failures.append(failure)
    except ContainerError as exc:
        failures.append(str(exc))
    return failures


def _verify_member(name: str, blob: bytes) -> str | None:
    try:
        matrix, meta, reencodes = decode_and_reencode(blob)
    except IntegrityError as exc:
        return f"{name}: {exc}"
    if not reencodes:
        return f"{name}: re-encode is not bit-identical"
    return _check_total(name, meta, total_sum(matrix))


def _check_total(name: str, meta, total: int) -> str | None:
    if total != meta.packet_total:
        return f"{name}: packet_total {meta.packet_total} != matrix sum {total}"
    return None
