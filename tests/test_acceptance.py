"""End-to-end acceptance suite. Each test covers one release criterion and
prints one PASS line; run with `pytest -s tests/test_acceptance.py` to see
them as they complete. The heavy cases (10^6-record stats runs, a
10^7-record memory-ceiling ingest) take a few minutes combined."""

import json
import subprocess
import sys

import numpy as np
import pytest

from flowmat.archive import decode_matrix, iter_archive
from flowmat.cryptopan import CryptoPan
from flowmat.eve import IngestCounters, parse_flow_record
from flowmat.flowgen import GenConfig, generate, packet_total
from flowmat.hypermat import MatrixMeta, total_sum
from flowmat.pipeline import MEMORY_CEILING_BYTES, run_bench, run_ingest
from flowmat.stats import archive_stats
from tests.conftest import criterion_9_corpus, encode_one, random_matrix

KEY = bytes(range(32))
WINDOW = 1 << 17


def ok(criterion: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE PASS {criterion}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def million_record_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "eve_1m.ndjson"
    with open(path, "wb") as fh:
        for line in generate(GenConfig(n_flows=1_000_000, seed=2024)):
            fh.write(line + b"\n")
    return path


def _all_windows(out_dir):
    metas, sums = [], []
    for tar in sorted(out_dir.glob("*.tar")):
        for _, blob in iter_archive(tar):
            m, meta = decode_matrix(blob)
            metas.append(meta)
            sums.append(total_sum(m))
    order = np.argsort([m.seq for m in metas])
    return [metas[i] for i in order], [sums[i] for i in order]


def test_criterion_1_window_exactness(tmp_path):
    cfg = GenConfig(n_flows=13_108, pkts_per_flow=100, seed=1)
    assert packet_total(cfg) == 1_310_800  # generator oracle
    out = tmp_path / "out"
    result = run_ingest(generate(cfg), CryptoPan(KEY), out, window_packets=WINDOW)
    metas, sums = _all_windows(out)
    assert result.windows_written == 11
    assert sums[:10] == [131072] * 10
    assert sums[10] == 80
    assert [m.packet_total for m in metas] == sums
    ok("1 window exactness", "10 x 131072 + partial 80")


def test_criterion_2_prefix_preservation_and_injectivity():
    cp = CryptoPan(KEY)
    rng = np.random.default_rng(7)

    def lcp(x):
        return np.where(x == 0, 32, 32 - (np.floor(np.log2(x + (x == 0))).astype(np.int64) + 1))

    a = rng.integers(0, 1 << 32, size=10_000, dtype=np.uint64).astype(np.uint32)
    b = rng.integers(0, 1 << 32, size=10_000, dtype=np.uint64).astype(np.uint32)
    assert np.array_equal(lcp(a ^ b), lcp(cp.anonymize_many(a) ^ cp.anonymize_many(b)))

    for bit in range(32):
        base = rng.integers(0, 1 << 32, size=32, dtype=np.uint64).astype(np.uint32)
        flip = base ^ np.uint32(1 << bit)
        diff = cp.anonymize_many(base) ^ cp.anonymize_many(flip)
        assert np.array_equal(lcp(diff), np.full(32, 31 - bit))

    addrs = np.unique(rng.integers(0, 1 << 32, size=1_100_000, dtype=np.uint64).astype(np.uint32))
    assert len(addrs) >= 1_000_000
    addrs = addrs[:1_000_000]
    out = np.empty_like(addrs)
    chunk = 1 << 16
    for lo in range(0, len(addrs), chunk):
        out[lo : lo + chunk] = cp.anonymize_many(addrs[lo : lo + chunk])
    assert len(np.unique(out)) == 1_000_000

    # pinned vector from an independent reference implementation
    assert cp.anonymize_many(np.array([0x0A010203], np.uint32)).tolist() == [0xF6221D10]
    ok("2 prefix preservation", "10^4 pairs + per-bit flips exact; 10^6 injective; pinned vector")


def test_criterion_3_anonymization_invariant_stats(million_record_file, tmp_path):
    def run(anon, name):
        out = tmp_path / name
        with open(million_record_file, "rb") as fh:
            run_ingest(iter(fh.read().splitlines()), anon, out, window_packets=WINDOW)
        records = []
        # by first seq: TAR names start with a wall-clock second, so name order
        # puts "<t>_128" before "<t>_64" only when both TARs share a second
        for tar in sorted(out.glob("*.tar"), key=lambda p: int(p.stem.split("_")[1])):
            records.extend(archive_stats(tar))
        return records

    anonymized = run(CryptoPan(KEY), "anon")
    passthrough = run(None, "raw")
    assert anonymized == passthrough
    assert all("error" not in r for r in anonymized)
    ok("3 anonymization-invariant stats", f"{len(anonymized)} stats records identical")


def test_criterion_4_serialization_round_trip(rng):
    checked = 0
    for i in range(1000):
        m = random_matrix(rng, max_entries=0 if i == 0 else (1 if i == 1 else 150))
        meta = MatrixMeta(seq=i, packet_total=int(m.vals.sum(dtype=np.uint64)),
                          created_unix_s=1_724_000_000 + i)
        blob = encode_one(m, meta)
        m2, meta2 = decode_matrix(blob)
        assert m2 == m and meta2 == meta
        assert encode_one(m2, meta2) == blob
        checked += 1
    ok("4 serialization round-trip", f"{checked} matrices incl. empty and single-entry")


def test_criterion_5_archive_grouping(tmp_path):
    import tarfile

    # 1040 flows x 128 pkts = 133120 = 130 windows of 1024, no partial
    cfg = GenConfig(n_flows=1040, pkts_per_flow=128, seed=6)
    out = tmp_path / "out"
    result = run_ingest(generate(cfg), CryptoPan(KEY), out,
                        window_packets=1024, per_tar=64)
    assert result.windows_written == 130
    tars = sorted(out.glob("*.tar"))
    sizes = []
    for tar in tars:
        subprocess.run(["tar", "-tf", str(tar)], check=True, capture_output=True)
        with tarfile.open(tar) as t:
            names = t.getnames()
        assert names == sorted(names)
        sizes.append(len(names))
    assert sorted(sizes, reverse=True) == [64, 64, 2]
    seqs = [m.seq for m in _all_windows(out)[0]]
    assert seqs == list(range(130))
    ok("5 archive grouping", "130 windows -> 64/64/2, ustar-readable, seq order")


def test_criterion_6_size_bounds(tmp_path):
    # 64 windows of 2^17 packets at flowgen defaults (100 pkts/flow, uniform)
    cfg = GenConfig(n_flows=(64 * WINDOW) // 100 + 1, pkts_per_flow=100, seed=12)
    out = tmp_path / "out"
    run_ingest(generate(cfg), CryptoPan(KEY), out, window_packets=WINDOW, per_tar=64)
    tars = sorted(out.glob("*.tar"))
    blob_sizes = [len(blob) for _, blob in iter_archive(tars[0])]
    assert max(blob_sizes) < 420 * 1000
    tar_size = tars[0].stat().st_size
    assert tar_size < 26 * 1000 * 1000
    ok("6 size bounds", f"max blob {max(blob_sizes)} B < 420 KB; TAR {tar_size} B < 26 MB")


def test_criterion_7_memory_ceiling(tmp_path):
    gen_cmd = [sys.executable, "-m", "flowmat", "gen", "--flows", "10000000", "--seed", "3"]
    ingest_cmd = [sys.executable, "-m", "flowmat", "ingest", "--input", "-",
                  "--out", str(tmp_path / "out")]
    import os

    gen_proc = subprocess.Popen(gen_cmd, stdout=subprocess.PIPE)
    env = {**os.environ, "FLOWMAT_KEY": KEY.hex()}
    ingest_proc = subprocess.run(ingest_cmd, stdin=gen_proc.stdout,
                                 capture_output=True, env=env)
    gen_proc.stdout.close()
    assert gen_proc.wait() == 0
    assert ingest_proc.returncode == 0, ingest_proc.stderr
    summary = json.loads(ingest_proc.stdout)
    assert summary["records_ok"] == 10_000_000
    assert summary["packets_total"] == 1_000_000_000
    assert summary["peak_rss_bytes"] < MEMORY_CEILING_BYTES
    ok("7 memory ceiling",
       f"10^7 records, peak RSS {summary['peak_rss_bytes'] / 2**20:.0f} MB < 512 MB")


def test_criterion_8_throughput_report(million_record_file, tmp_path):
    report = run_bench(million_record_file, CryptoPan(KEY), tmp_path, window_packets=WINDOW)
    assert report["n_records"] == 1_000_000
    assert report["reliable"] is True
    stages = report["stages"]
    assert set(stages) == {"parse", "anonymize", "window_build", "encode_archive"}
    rates = {k: v["records_per_second"] for k, v in stages.items()}
    assert all(r > 0 for r in rates.values())
    assert report["end_to_end"]["records_per_second"] <= min(rates.values())
    assert "fastest_stage" in report and "under_memory_ceiling" in report
    ok("8 throughput report",
       f"rates {rates}; e2e {report['end_to_end']['records_per_second']} <= min stage")


def test_criterion_9_robust_ingestion(tmp_path):
    corpus, valid, valid_packets = criterion_9_corpus()
    result = run_ingest(iter(corpus), CryptoPan(KEY), tmp_path / "out", window_packets=1 << 12)
    c: IngestCounters = result.counters
    assert c.lines_consumed == 100_000
    assert c.records_ok == valid
    assert result.packets_total == valid_packets
    # spot-check parser totality on the same corpus
    for line in corpus[:1000]:
        parse_flow_record(line)
    ok("9 robust ingestion", f"10^5 fuzz lines, {valid} valid, counters conserved")
