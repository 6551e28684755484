"""Per-layer CPU accounting for one in-process ingest, from outside the program.

The traced run makes the calls ``flowmat ingest`` makes (``open_source`` and
the threaded ``run_ingest``) while the names the pipeline looks up at call
time are replaced by timing wrappers. Each wrapper reads the calling thread's
CPU clock: the three pipeline threads share the interpreter lock, so a wall
clock around a ~10 us call would also count other threads' time slices.

Spans nest per thread, and a span's self time excludes the wrapped calls it
makes, so the layer times below add up to at most the process CPU time.
Per-line functions are leaves: only every SAMPLE_EVERY-th call is timed and
the total is scaled by calls / timed calls, because two clock reads per line
would cost a noticeable share of a ~10 us parse.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

SAMPLE_EVERY = 16


@dataclass
class Span:
    calls: int = 0
    timed: int = 0
    cpu: float = 0.0
    self_cpu: float = 0.0
    wall: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))

    @property
    def cpu_estimate(self) -> float:
        """Total CPU of all calls, scaled up from the timed ones."""
        return self.cpu * self.calls / self.timed if self.timed else 0.0


class Tracer:
    """Installs timing wrappers on module or class attributes until restore()."""

    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, *, every: int = 1, wall: bool = False,
             count=None) -> None:
        """Time owner.attr under span name; count(counts, args, result) adds counters."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        span = self.spans[name]
        local = self._local

        def traced(*args, **kwargs):
            span.calls += 1
            if span.calls % every:
                result = original(*args, **kwargs)
            else:
                stack = local.__dict__.setdefault("stack", [])
                frame = [0.0]
                stack.append(frame)
                w0 = time.perf_counter() if wall else 0.0
                c0 = time.thread_time()
                try:
                    result = original(*args, **kwargs)
                finally:
                    dt = time.thread_time() - c0
                    if wall:
                        span.wall += time.perf_counter() - w0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dt
                    span.timed += 1
                    span.cpu += dt
                    span.self_cpu += dt - frame[0]
            if count is not None:
                count(span.counts, args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _count_addrs(counts, args, result):
    if args[0] is not None:
        counts["addrs"] += 2 * len(args[1])


def _count_unique(counts, args, result):
    counts["unique"] += len(args[1])


def _count_build(counts, args, result):
    counts["entries"] += len(args[0])
    counts["nvals"] += result[0].nvals


def _count_blob(counts, args, result):
    counts["blob_bytes"] += len(args[1])


def _count_compress(counts, args, result):
    counts["raw_bytes"] += len(args[0])
    counts["compressed_bytes"] += len(result)


def _ingest_tracer():
    import flowmat.lz4block
    import flowmat.pipeline
    from flowmat.archive import ArchiveWriter
    from flowmat.cryptopan import CryptoPan
    from flowmat.window import TripleBuffer, Windower

    t = Tracer()
    t.wrap(flowmat.pipeline, "parse_flow_record", "eve", every=SAMPLE_EVERY)
    t.wrap(flowmat.pipeline, "anonymize_flows", "cryptopan", count=_count_addrs)
    t.wrap(CryptoPan, "anonymize_many", "cryptopan.anonymize_many", count=_count_unique)
    t.wrap(Windower, "push_flow", "window", every=SAMPLE_EVERY)
    t.wrap(TripleBuffer, "build", "hypermat", count=_count_build)
    t.wrap(flowmat.pipeline, "encode_matrix", "archive.encode")
    t.wrap(ArchiveWriter, "append", "archive.append", wall=True, count=_count_blob)
    t.wrap(ArchiveWriter, "close", "archive.close", wall=True)
    t.wrap(flowmat.lz4block, "compress", "lz4block.compress", count=_count_compress)
    return t


def _read_tracer():
    import flowmat.archive
    import flowmat.lz4block
    import flowmat.stats

    t = Tracer()
    t.wrap(flowmat.archive, "decode_matrix", "archive.decode")
    t.wrap(flowmat.stats, "decode_matrix", "archive.decode")
    t.wrap(flowmat.lz4block, "decompress", "lz4block.decompress")
    t.wrap(flowmat.stats, "matrix_stats", "stats")
    return t


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", ".cpu_per_wall", ".tracing_overhead")):
        return "ratio"
    return "count"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


@dataclass
class TracedRun:
    result: object                 # flowmat.pipeline.IngestResult
    tars: list[Path]
    verify_failures: dict          # tar path -> list of failure strings
    stats_records: dict            # tar path -> archive_stats records
    layers: dict                   # per-layer metric name -> value
    missing_hooks: list[str]


def traced_ingest(input_path: Path, out_dir: Path, window_packets: int, per_tar: int) -> TracedRun:
    """One traced ingest of input_path, then one traced verify + stats pass."""
    from flowmat.cryptopan import CryptoPan, load_key
    from flowmat.eve import open_source
    from flowmat.pipeline import run_ingest, verify_archive
    from flowmat.stats import archive_stats

    anon = CryptoPan(load_key(None))
    tracer = _ingest_tracer()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        source = open_source(str(input_path))
        try:
            result = run_ingest(
                iter(source), anon, out_dir, window_packets=window_packets, per_tar=per_tar
            )
        finally:
            source.close()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    finally:
        tracer.restore()

    tars = sorted(out_dir.glob("*.tar"))
    reader = _read_tracer()
    try:
        verify_failures = {p: verify_archive(p) for p in tars}
        stats_records = {p: archive_stats(p) for p in tars}
    finally:
        reader.restore()

    s, r = tracer.spans, reader.spans
    c = result.counters
    lines = c.lines_consumed
    eve_cpu = s["eve"].cpu_estimate
    window_cpu = s["window"].cpu_estimate
    addrs = s["cryptopan"].counts["addrs"]
    unique = s["cryptopan.anonymize_many"].counts["unique"]
    entries = s["hypermat"].counts["entries"]
    nvals = s["hypermat"].counts["nvals"]
    raw = s["lz4block.compress"].counts["raw_bytes"]
    packed = s["lz4block.compress"].counts["compressed_bytes"]
    layer_cpu = {
        "eve": eve_cpu,
        "cryptopan": s["cryptopan"].cpu,
        "window": window_cpu,
        "hypermat": s["hypermat"].self_cpu,
        "archive": s["archive.encode"].self_cpu + s["archive.append"].self_cpu
        + s["archive.close"].self_cpu,
        "lz4block": s["lz4block.compress"].self_cpu,
    }
    unattributed = cpu - sum(layer_cpu.values())
    layers = {
        "eve.lines": lines,
        "eve.cpu_s": eve_cpu,
        "eve.us_per_line": _ratio(eve_cpu, lines) * 1e6,
        "eve.read_mb": input_path.stat().st_size / 1e6,
        "eve.skipped_non_flow": c.records_skipped_non_flow,
        "eve.skipped_ipv6": c.records_skipped_ipv6,
        "eve.skipped_malformed": c.records_skipped_malformed,
        "cryptopan.batches": s["cryptopan"].calls,
        "cryptopan.cpu_s": s["cryptopan"].cpu,
        "cryptopan.addrs": addrs,
        "cryptopan.addrs_unique": unique,
        "cryptopan.unique_ratio": _ratio(unique, addrs),
        "cryptopan.anonymize_many_cpu_s": s["cryptopan.anonymize_many"].cpu,
        "cryptopan.us_per_unique_addr": _ratio(s["cryptopan.anonymize_many"].cpu, unique) * 1e6,
        "window.cpu_s": window_cpu,
        "window.windows": result.windows_written,
        "window.entries": entries,
        "window.entries_per_window": _ratio(entries, result.windows_written),
        "hypermat.builds": s["hypermat"].calls,
        "hypermat.cpu_s": s["hypermat"].self_cpu,
        "hypermat.us_per_build": _ratio(s["hypermat"].self_cpu, s["hypermat"].calls) * 1e6,
        "hypermat.nvals": nvals,
        "hypermat.fold_ratio": _ratio(nvals, entries),
        "archive.encode_cpu_s": s["archive.encode"].self_cpu,
        "archive.append_cpu_s": s["archive.append"].cpu + s["archive.close"].cpu,
        "archive.append_wall_s": s["archive.append"].wall + s["archive.close"].wall,
        "archive.blob_bytes": s["archive.append"].counts["blob_bytes"],
        "archive.tars": result.tars_finalized,
        "archive.decode_cpu_s": r["archive.decode"].self_cpu,
        "lz4block.compress_cpu_s": s["lz4block.compress"].self_cpu,
        "lz4block.decompress_cpu_s": r["lz4block.decompress"].self_cpu,
        "lz4block.raw_bytes": raw,
        "lz4block.compressed_bytes": packed,
        "lz4block.compression_ratio": _ratio(raw, packed),
        "stats.matrix_stats_cpu_s": r["stats"].self_cpu,
        "pipeline.wall_s": wall,
        "pipeline.cpu_s": cpu,
        "pipeline.cpu_per_wall": _ratio(cpu, wall),
        "pipeline.unattributed_cpu_s": unattributed,
    }
    return TracedRun(
        result=result,
        tars=tars,
        verify_failures=verify_failures,
        stats_records=stats_records,
        layers=layers,
        missing_hooks=tracer.missing + reader.missing,
    )
