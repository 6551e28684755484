import struct
import subprocess
import tarfile

import numpy as np
import pytest

from flowmat.archive import (
    ArchiveWriter,
    IntegrityError,
    decode_matrix,
    encode_matrix,
    iter_archive,
    member_name,
)
from flowmat.hypermat import MatrixMeta, empty
from tests.conftest import build, random_matrix, to_triples

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
