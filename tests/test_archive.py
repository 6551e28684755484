import io
import struct
import subprocess
import tarfile
import time

import numpy as np
import pytest

from flowmat.archive import (
    ArchiveWriter,
    ContainerError,
    IntegrityError,
    decode_matrix,
    encode_matrix,
    iter_archive,
    member_name,
)
from flowmat.flowgen import generate
from flowmat.hypermat import MatrixMeta, empty
from flowmat.pipeline import run_ingest, verify_archive
from flowmat.stats import archive_stats
from tests.conftest import build, random_matrix, to_triples
from tests.test_golden import FIXED_CLOCK, GOLDEN_INPUT

META = MatrixMeta(seq=0, packet_total=9, created_unix_s=1_724_000_000)


def test_empty_matrix_blob_small():
    blob = encode_matrix(empty(), MatrixMeta(0, 0, 0))
    assert len(blob) < 200
    m, meta = decode_matrix(blob)
    assert m == empty()
    assert meta == MatrixMeta(0, 0, 0)


def test_two_entry_round_trip():
    m = build([(1, 2, 5), (1, 2, 3), (0, 9, 1)])
    m2, meta2 = decode_matrix(encode_matrix(m, META))
    assert m2 == m
    assert meta2 == META


def test_encode_deterministic():
    m = build([(3, 4, 5)])
    assert encode_matrix(m, META) == encode_matrix(m, META)


def test_random_round_trip_and_reencode(rng):
    for _ in range(50):
        m = random_matrix(rng)
        meta = MatrixMeta(
            seq=int(rng.integers(0, 1 << 40)),
            packet_total=int(m.vals.sum(dtype=np.uint64)),
            created_unix_s=int(rng.integers(0, 1 << 32)),
        )
        blob = encode_matrix(m, meta)
        m2, meta2 = decode_matrix(blob)
        assert to_triples(m2) == to_triples(m)
        assert meta2 == meta
        assert encode_matrix(m2, meta2) == blob


def test_bad_magic():
    blob = bytearray(encode_matrix(empty(), META))
    blob[0] ^= 0xFF
    with pytest.raises(IntegrityError, match="magic"):
        decode_matrix(bytes(blob))


def test_bad_version():
    blob = bytearray(encode_matrix(empty(), META))
    blob[4] = 99
    with pytest.raises(IntegrityError, match="version"):
        decode_matrix(bytes(blob))


def test_truncated_blob():
    blob = encode_matrix(build([(1, 2, 3)]), META)
    with pytest.raises(IntegrityError, match="truncated|shorter"):
        decode_matrix(blob[: len(blob) - 5])


def test_corrupt_section_names_section():
    blob = bytearray(encode_matrix(build([(i, i + 1, 2) for i in range(50)]), META))
    # zero out the last section's payload: invalid LZ4 stream for that length
    blob[-8:] = b"\x00" * 8
    with pytest.raises(IntegrityError, match="vals"):
        decode_matrix(bytes(blob))


def test_trailing_bytes_rejected():
    blob = encode_matrix(empty(), META)
    with pytest.raises(IntegrityError, match="trailing"):
        decode_matrix(blob + b"\x00")


def _raw_len_offsets(blob: bytes) -> list[int]:
    """Byte offset of each section's raw_len field."""
    offsets, offset = [], 64  # fixed header size
    for _ in range(4):
        offsets.append(offset)
        comp_len = struct.unpack_from("<Q", blob, offset + 8)[0]
        offset += 16 + comp_len
    assert offset == len(blob)
    return offsets


@pytest.mark.parametrize("section", range(4))
def test_raw_len_bit_flips_raise_integrity_error(section):
    blob = encode_matrix(build([(i, i + 1, 2) for i in range(50)]), META)
    field = _raw_len_offsets(blob)[section]
    raw_len = struct.unpack_from("<Q", blob, field)[0]
    for bit in range(64):
        bad = bytearray(blob)
        struct.pack_into("<Q", bad, field, raw_len ^ (1 << bit))
        with pytest.raises(IntegrityError, match="raw length"):
            decode_matrix(bytes(bad))


def test_member_naming():
    assert member_name(7) == "00000000000000000007.grb"


def _blobs(n, rng):
    for seq in range(n):
        m = random_matrix(rng, max_entries=20)
        meta = MatrixMeta(seq=seq, packet_total=int(m.vals.sum(dtype=np.uint64)),
                          created_unix_s=1_724_000_000 + seq)
        yield encode_matrix(m, meta), meta


def test_rotation_64(tmp_path, rng):
    w = ArchiveWriter(tmp_path, per_tar=64)
    finalized = [w.append(blob, meta) for blob, meta in _blobs(64, rng)]
    assert finalized[:-1] == [None] * 63
    assert finalized[-1] is not None
    assert w.close() is None
    with tarfile.open(finalized[-1]) as tar:
        names = tar.getnames()
    assert names == [member_name(i) for i in range(64)]


def test_rotation_130_gives_64_64_2(tmp_path, rng):
    w = ArchiveWriter(tmp_path, per_tar=64)
    finalized = [w.append(blob, meta) for blob, meta in _blobs(130, rng)] + [w.close()]
    sizes = []
    for path in filter(None, finalized):
        with tarfile.open(path) as tar:
            sizes.append(len(tar.getnames()))
    assert sizes == [64, 64, 2]


def test_non_ascending_seq_rejected(tmp_path, rng):
    w = ArchiveWriter(tmp_path, per_tar=64)
    blobs = list(_blobs(2, rng))
    w.append(*blobs[1])
    with pytest.raises(ValueError, match="ascending"):
        w.append(*blobs[0])
    w.close()


def test_tar_readable_by_system_extractor(tmp_path, rng):
    w = ArchiveWriter(tmp_path / "out", per_tar=4)
    path = [w.append(blob, meta) for blob, meta in _blobs(4, rng)][-1]
    extract_dir = tmp_path / "extracted"
    extract_dir.mkdir()
    subprocess.run(["tar", "-xf", str(path), "-C", str(extract_dir)], check=True)
    extracted = sorted(p.name for p in extract_dir.iterdir())
    assert extracted == [member_name(i) for i in range(4)]
    # ustar format, per the header magic
    with open(path, "rb") as fh:
        header = fh.read(512)
    assert header[257:263] == b"ustar\x00"


def test_iter_archive_round_trip(tmp_path, rng):
    w = ArchiveWriter(tmp_path, per_tar=8)
    originals = list(_blobs(8, rng))
    path = [w.append(blob, meta) for blob, meta in originals][-1]
    members = list(iter_archive(path))
    assert [name for name, _ in members] == [member_name(i) for i in range(8)]
    assert [blob for _, blob in members] == [blob for blob, _ in originals]


def test_tar_file_naming(tmp_path, rng):
    w = ArchiveWriter(tmp_path, per_tar=2)
    path = [w.append(blob, meta) for blob, meta in _blobs(2, rng)][-1]
    assert path.name == "1724000000_0.tar"


def _tarfile_members(path):
    with tarfile.open(path) as tar:
        return [(info.name, tar.extractfile(info).read()) for info in tar]


@pytest.mark.parametrize("per_tar", range(1, 6))
@pytest.mark.parametrize("mtime", [0, 8**11 - 1])
def test_writer_bytes_equal_tarfile(tmp_path, rng, per_tar, mtime):
    sizes = [0, 511, 512, 513, *rng.integers(1, 3000, size=4).tolist()]
    blobs = [rng.bytes(size) for size in sizes]
    metas = [MatrixMeta(seq=3 * i, packet_total=0, created_unix_s=mtime) for i in range(len(blobs))]
    w = ArchiveWriter(tmp_path / "ours", per_tar=per_tar)
    ours = [w.append(blob, meta) for blob, meta in zip(blobs, metas)] + [w.close()]
    ours = [path for path in ours if path is not None]
    assert len(ours) == -(-len(blobs) // per_tar)
    for k, path in enumerate(ours):
        members = range(k * per_tar, min((k + 1) * per_tar, len(blobs)))
        oracle = tmp_path / "oracle.tar"
        with tarfile.open(oracle, "w", format=tarfile.USTAR_FORMAT) as tar:
            for i in members:
                info = tarfile.TarInfo(member_name(metas[i].seq))
                info.size = len(blobs[i])
                info.mtime = mtime
                tar.addfile(info, io.BytesIO(blobs[i]))
        assert path.name == f"{mtime}_{metas[members[0]].seq}.tar"
        assert path.read_bytes() == oracle.read_bytes()
        assert list(iter_archive(path)) == [(member_name(metas[i].seq), blobs[i]) for i in members]


class _Huge:
    """A blob whose length overflows the 11-digit size field."""

    def __len__(self):
        return 8**11


@pytest.mark.parametrize("blob, mtime", [(b"x", 8**11), (b"x", -1), (_Huge(), 0)])
def test_writer_rejects_unrepresentable_header_before_writing(tmp_path, blob, mtime):
    w = ArchiveWriter(tmp_path, per_tar=2)
    with pytest.raises(ValueError, match="overflows"):
        w.append(blob, MatrixMeta(seq=0, packet_total=0, created_unix_s=mtime))
    assert list(tmp_path.iterdir()) == []
    # the rejected member left no trace: the next one starts the TAR
    w.append(b"ok", MatrixMeta(seq=0, packet_total=0, created_unix_s=5))
    path = w.close()
    assert _tarfile_members(path) == [(member_name(0), b"ok")]


def test_iter_archive_equals_tarfile_on_golden_tars(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)
    run_ingest(generate(GOLDEN_INPUT), None, tmp_path)
    tars = sorted(tmp_path.glob("*.tar"))
    assert len(tars) == 3
    for path in tars:
        assert list(iter_archive(path)) == _tarfile_members(path)


def test_iter_archive_reads_system_tar_rewrite(tmp_path, rng):
    w = ArchiveWriter(tmp_path / "out", per_tar=5)
    path = [w.append(blob, meta) for blob, meta in _blobs(5, rng)][-1]
    extract_dir = tmp_path / "extracted"
    extract_dir.mkdir()
    subprocess.run(["tar", "-xf", str(path), "-C", str(extract_dir)], check=True)
    rewritten = tmp_path / "rewritten.tar"
    names = [member_name(i) for i in range(5)]
    subprocess.run(["tar", "-cf", str(rewritten), "-C", str(extract_dir), *names], check=True)
    assert rewritten.read_bytes()[257:265] == b"ustar  \x00"  # GNU magic
    assert list(iter_archive(rewritten)) == list(iter_archive(path))


def _three_member_tar(tmp_path, rng):
    """Path, bytes, members and block offsets (3 headers, first end block)."""
    w = ArchiveWriter(tmp_path / "out", per_tar=3)
    path = [w.append(blob, meta) for blob, meta in _blobs(3, rng)][-1]
    members = list(iter_archive(path))
    offsets, offset = [], 0
    for _, blob in members:
        offsets.append(offset)
        offset += 512 + -(-len(blob) // 512) * 512
    return path.read_bytes(), members, offsets + [offset]


def _read_back(path):
    """Members iter_archive yields, and whether it raised ContainerError."""
    members = []
    try:
        for member in iter_archive(path):
            members.append(member)
    except ContainerError:
        return members, True
    return members, False


def _check_reported(path, original):
    """A damaged TAR either reads back whole or every reader reports it."""
    members, failed = _read_back(path)
    failures = verify_archive(path)
    records = archive_stats(path)
    member_records = [r for r in records if not r.get("aggregate")]
    if not failed:
        assert members == original
        assert failures == []
        assert all("error" not in r for r in member_records)
        return False
    assert members == original[: len(members)]
    assert failures and failures[-1].startswith("byte ")
    assert member_records[-1]["member"].startswith("byte ") and "error" in member_records[-1]
    assert records[-1]["aggregate"] is True
    return True


@pytest.mark.parametrize("block", range(4), ids=["header0", "header1", "header2", "end"])
def test_container_bit_flips_are_reported_or_harmless(tmp_path, rng, block):
    data, original, offsets = _three_member_tar(tmp_path, rng)
    bad = tmp_path / "bad.tar"
    harmless = []
    for byte in range(offsets[block], offsets[block] + 512):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[byte] ^= 1 << bit
            bad.write_bytes(flipped)
            if not _check_reported(bad, original):
                harmless.append((byte - offsets[block], bit))
    # only the checksum field can take a flip that leaves its value unchanged
    assert all(148 <= byte < 156 for byte, _ in harmless)
    if block < 3:
        assert (155, 5) in harmless  # the trailing space of "%06o\0 " as NUL


def test_container_truncation_is_reported(tmp_path, rng):
    data, original, offsets = _three_member_tar(tmp_path, rng)
    bad = tmp_path / "bad.tar"
    cuts = set(range(0, len(data), 512))
    cuts |= {1, 100, 511, 513, offsets[1] + 300, offsets[3] + 1, len(data) - 1}
    for cut in sorted(cuts):
        bad.write_bytes(data[:cut])
        assert _check_reported(bad, original), cut
