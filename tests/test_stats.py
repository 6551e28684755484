import numpy as np

from flowmat.archive import ArchiveWriter
from flowmat.cryptopan import CryptoPan
from flowmat.hypermat import MatrixMeta, build_segments
from flowmat.stats import MatrixStats, archive_stats, matrix_stats
from tests.conftest import build, encode_v2, matrices


def test_empty_matrix_stats():
    assert matrix_stats(build([])) == MatrixStats()


def test_stats_by_hand():
    s = matrix_stats(build([(0, 9, 1), (1, 2, 8)]))
    assert s.packet_total == 9
    assert s.nvals == 2
    assert s.unique_sources == 2
    assert s.unique_destinations == 2
    assert s.max_fanout == 1
    assert s.max_fanin == 1
    assert s.degree_histogram == {1: 2}


def test_fanout_fanin():
    s = matrix_stats(build([(1, 2, 5), (1, 3, 5), (1, 4, 5), (9, 2, 1)]))
    assert s.max_fanout == 3
    assert s.max_fanin == 2
    assert s.degree_histogram == {1: 1, 3: 1}


def test_anonymization_invariance(rng):
    n = 20_000
    rows = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    cols = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    vals = rng.integers(1, 50, size=n, dtype=np.uint64)
    cp = CryptoPan(bytes(range(32)))
    one = np.zeros(n, np.int64)
    (raw,) = matrices(build_segments(one, rows, cols, vals, 1))
    (anon,) = matrices(build_segments(one, cp.anonymize_many(rows), cp.anonymize_many(cols),
                                      vals, 1))
    assert matrix_stats(raw) == matrix_stats(anon)


def _write_archive(tmp_path, matrices):
    created = 1_724_000_000
    blobs = [encode_v2(m, MatrixMeta(seq, int(m.vals.sum(dtype=np.uint64)), created))
             for seq, m in enumerate(matrices)]
    w = ArchiveWriter(tmp_path, per_tar=64)
    w.extend(blobs, 0, created)
    return w.close()


def test_archive_stats_single_member(tmp_path):
    path = _write_archive(tmp_path, [build([(0, 9, 1), (1, 2, 8)])])
    records = archive_stats(path)
    assert len(records) == 2  # one member + aggregate
    assert records[0]["packet_total"] == 9
    assert records[1]["aggregate"] is True
    assert records[1]["packet_total"] == 9


def test_archive_stats_corrupt_member_isolated(tmp_path, rng):
    import io
    import tarfile

    good = build([(3, 4, 5)])
    path = _write_archive(tmp_path / "good", [good, good])
    # rebuild the TAR with the first member corrupted
    bad_path = tmp_path / "bad.tar"
    with tarfile.open(path) as src, tarfile.open(bad_path, "w", format=tarfile.USTAR_FORMAT) as dst:
        for i, info in enumerate(src):
            data = src.extractfile(info).read()
            if i == 0:
                data = b"\x00" * len(data)
            out = tarfile.TarInfo(info.name)
            out.size = len(data)
            dst.addfile(out, io.BytesIO(data))
    records = archive_stats(bad_path)
    assert "error" in records[0]
    assert records[1]["packet_total"] == 5
    assert records[2]["aggregate"] is True
    assert records[2]["members"] == 1


def test_aggregate_sums(tmp_path):
    path = _write_archive(tmp_path, [build([(0, 1, 2)]), build([(5, 6, 7), (5, 8, 1)])])
    records = archive_stats(path)
    agg = records[-1]
    assert agg["packet_total"] == 10
    assert agg["nvals"] == 3
    assert agg["max_fanout"] == 2
