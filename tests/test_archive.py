import io
import json
import struct
import subprocess
import tarfile
import tempfile
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmat.archive import (
    ArchiveWriter,
    ContainerError,
    IntegrityError,
    decode_matrix,
    encode_group,
    iter_archive,
    member_name,
)
from flowmat.flowgen import generate
from flowmat.hypermat import MatrixMeta, build_segments
from flowmat.pipeline import run_ingest, verify_archive
from flowmat.stats import archive_stats
from tests.conftest import (
    build, encode_one, encode_v1, encode_v2, random_matrix, to_triples, with_crc,
)
from tests.test_golden import FIXED_CLOCK, GOLDEN_INPUT
from tests.test_pipeline_cli import run_cli

CREATED = 1_724_000_000
META = MatrixMeta(seq=0, packet_total=9, created_unix_s=CREATED)
DATA = Path(__file__).parent / "data"


def test_v2_layout():
    m = build([(i, i + 1, 2) for i in range(50)])
    blob = encode_one(m, META)
    assert struct.unpack_from("<4sI", blob) == (b"HSTM", 2)
    raw_len, comp_len, crc = struct.unpack_from("<QQI", blob, 64)
    assert raw_len == 50 * 4 + 51 * 8 + 50 * 4 + 50 * 8
    assert len(blob) == 84 + comp_len
    assert crc == zlib.crc32(blob[:80] + blob[84:])
    assert with_crc(blob) == blob
    assert len(blob) < len(encode_v1(m, META))


def test_empty_matrix_blob_small():
    blob = encode_one(build([]), MatrixMeta(0, 0, 0))
    assert len(blob) < 200
    m, meta = decode_matrix(blob)
    assert m == build([])
    assert meta == MatrixMeta(0, 0, 0)


def test_two_entry_round_trip():
    m = build([(1, 2, 5), (1, 2, 3), (0, 9, 1)])
    m2, meta2 = decode_matrix(encode_one(m, META))
    assert m2 == m
    assert meta2 == META


def test_encode_deterministic():
    m = build([(3, 4, 5)])
    assert encode_one(m, META) == encode_one(m, META)


def test_random_round_trip_and_reencode(rng):
    for _ in range(50):
        m = random_matrix(rng)
        meta = MatrixMeta(
            seq=int(rng.integers(0, 1 << 40)),
            packet_total=int(m.vals.sum(dtype=np.uint64)),
            created_unix_s=int(rng.integers(0, 1 << 32)),
        )
        blob = encode_one(m, meta)
        m2, meta2 = decode_matrix(blob)
        assert to_triples(m2) == to_triples(m)
        assert meta2 == meta
        assert encode_one(m2, meta2) == blob


def test_bad_magic():
    blob = bytearray(encode_v2(build([]), META))
    blob[0] ^= 0xFF
    with pytest.raises(IntegrityError, match="magic"):
        decode_matrix(bytes(blob))


def test_bad_version():
    blob = bytearray(encode_v2(build([]), META))
    blob[4] = 99
    with pytest.raises(IntegrityError, match="version"):
        decode_matrix(bytes(blob))


def test_truncated_blob():
    blob = encode_v2(build([(1, 2, 3)]), META)
    with pytest.raises(IntegrityError, match="truncated|shorter"):
        decode_matrix(blob[: len(blob) - 5])


def test_corrupt_section_names_section():
    blob = bytearray(encode_v1(build([(i, i + 1, 2) for i in range(50)]), META))
    # zero out the last section's payload: invalid LZ4 stream for that length
    blob[-8:] = b"\x00" * 8
    with pytest.raises(IntegrityError, match="vals"):
        decode_matrix(bytes(blob))


def test_corrupt_block_is_named():
    m = build([(i, i + 1, 2) for i in range(50)])
    blob = bytearray(encode_v2(m, META))
    blob[-8:] = b"\x00" * 8
    with pytest.raises(IntegrityError, match="crc32"):
        decode_matrix(bytes(blob))
    # the same fault behind a matching CRC: invalid LZ4 stream for that length
    with pytest.raises(IntegrityError, match="^block fails decompression$"):
        decode_matrix(with_crc(bytes(blob)))
    # a sound block whose vals hold a zero: the section is named
    zero_val = build([(i, i + 1, 2) for i in range(50)])
    zero_val.vals[7] = 0
    with pytest.raises(IntegrityError, match="section vals contains zero entries"):
        decode_matrix(encode_v2(zero_val, META))


def test_trailing_bytes_rejected():
    blob = encode_v2(build([]), META)
    with pytest.raises(IntegrityError, match="trailing"):
        decode_matrix(blob + b"\x00")


def _raw_len_offsets(blob: bytes) -> list[int]:
    """Byte offset of each section's raw_len field in a version 1 blob."""
    offsets, offset = [], 64  # fixed header size
    for _ in range(4):
        offsets.append(offset)
        comp_len = struct.unpack_from("<Q", blob, offset + 8)[0]
        offset += 16 + comp_len
    assert offset == len(blob)
    return offsets


@pytest.mark.parametrize("section", range(4))
def test_raw_len_bit_flips_raise_integrity_error(section):
    blob = encode_v1(build([(i, i + 1, 2) for i in range(50)]), META)
    field = _raw_len_offsets(blob)[section]
    raw_len = struct.unpack_from("<Q", blob, field)[0]
    for bit in range(64):
        bad = bytearray(blob)
        struct.pack_into("<Q", bad, field, raw_len ^ (1 << bit))
        with pytest.raises(IntegrityError, match="raw length"):
            decode_matrix(bytes(bad))


def test_v2_raw_len_bit_flips_raise_integrity_error():
    blob = encode_v2(build([(i, i + 1, 2) for i in range(50)]), META)
    raw_len = struct.unpack_from("<Q", blob, 64)[0]
    for bit in range(64):
        bad = bytearray(blob)
        struct.pack_into("<Q", bad, 64, raw_len ^ (1 << bit))
        with pytest.raises(IntegrityError, match="block raw length"):
            decode_matrix(bytes(bad))
        # the raw length is checked before the CRC that would also catch it
        with pytest.raises(IntegrityError, match="block raw length"):
            decode_matrix(with_crc(bytes(bad)))


@pytest.mark.parametrize("entries", [0, 5, 300])
def test_every_single_bit_flip_of_a_v2_blob_is_an_integrity_error(entries):
    m = build([(i * 7919 % 1009, i * 104_729, i + 1) for i in range(entries)])
    assert m.nvals == entries
    blob = encode_v2(m, MatrixMeta(seq=3, packet_total=int(m.vals.sum()), created_unix_s=7))
    assert decode_matrix(blob)[0] == m
    for byte in range(len(blob)):
        for bit in range(8):
            bad = bytearray(blob)
            bad[byte] ^= 1 << bit
            with pytest.raises(IntegrityError):
                decode_matrix(bytes(bad))


def _oversized(version: int, entries: int) -> bytes:
    """A blob whose header claims `entries` rows and entries, each block 8 bytes long."""
    header = struct.pack("<4sIQQQQQQQ", b"HSTM", version, 1 << 32, 1 << 32, entries, entries,
                         0, 0, 0)
    if version == 1:
        return header + b"".join(struct.pack("<QQ", n * entries + extra, 8) + bytes(8)
                                 for n, extra in [(4, 0), (8, 8), (4, 0), (8, 0)])
    return with_crc(header + struct.pack("<QQI", 24 * entries + 8, 8, 0) + bytes(8))


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("entries", [1 << 28, 1 << 40])
def test_raw_length_past_lz4_expansion_is_refused_before_allocation(version, entries):
    blob = _oversized(version, entries)
    with pytest.raises(IntegrityError, match="is more than 8 LZ4 bytes can hold"):
        decode_matrix(blob)


def test_cli_reports_oversized_raw_length_without_traceback(tmp_path):
    w = ArchiveWriter(tmp_path, per_tar=2)
    (path,) = w.extend([_oversized(1, 1 << 40), _oversized(2, 1 << 40)], 0, 5)
    for command in ["verify", "stats"]:
        proc = run_cli(command, str(path))
        assert b"Traceback" not in proc.stderr, proc.stderr
        if command == "verify":
            assert proc.returncode == 1
            lines = proc.stderr.decode().splitlines()
        else:
            assert proc.returncode == 0
            lines = [r.get("error", "") for r in map(json.loads, proc.stdout.splitlines())]
        assert [line for line in lines if "LZ4 bytes can hold" in line] == lines[:2], lines


def test_committed_v1_tar_verifies_and_gives_pinned_stats():
    # written by ingest when version 1 was the format, members of 1 to 729 entries
    path = DATA / "v1.tar"
    blobs = [blob for _, blob in iter_archive(path)]
    assert {struct.unpack_from("<I", blob, 4)[0] for blob in blobs} == {1}
    assert verify_archive(path) == []
    assert archive_stats(path) == json.loads((DATA / "v1_stats.json").read_text())


def test_member_naming():
    assert member_name(7) == "00000000000000000007.grb"


def _blobs(n, rng) -> list[bytes]:
    """Blobs of windows 0, 1, ..., n - 1, all created at CREATED."""
    blobs = []
    for seq in range(n):
        m = random_matrix(rng, max_entries=20)
        blobs.append(encode_v2(m, MatrixMeta(seq, int(m.vals.sum(dtype=np.uint64)), CREATED)))
    return blobs


def test_rotation_64(tmp_path, rng):
    w = ArchiveWriter(tmp_path, per_tar=64)
    finalized = [w.extend([blob], seq, CREATED) for seq, blob in enumerate(_blobs(64, rng))]
    assert finalized[:-1] == [[]] * 63
    (path,) = finalized[-1]
    assert w.close() is None
    with tarfile.open(path) as tar:
        names = tar.getnames()
    assert names == [member_name(i) for i in range(64)]


def test_rotation_130_gives_64_64_2(tmp_path, rng):
    w = ArchiveWriter(tmp_path, per_tar=64)
    finalized = w.extend(_blobs(130, rng), 0, CREATED) + [w.close()]
    sizes = []
    for path in finalized:
        with tarfile.open(path) as tar:
            sizes.append(len(tar.getnames()))
    assert sizes == [64, 64, 2]


def test_non_ascending_seq_rejected(tmp_path, rng):
    w = ArchiveWriter(tmp_path, per_tar=64)
    blobs = _blobs(2, rng)
    w.extend([blobs[1]], 1, CREATED)
    with pytest.raises(ValueError, match="ascending"):
        w.extend([blobs[0]], 0, CREATED)
    w.close()


def test_tar_readable_by_system_extractor(tmp_path, rng):
    w = ArchiveWriter(tmp_path / "out", per_tar=4)
    (path,) = w.extend(_blobs(4, rng), 0, CREATED)
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
    originals = _blobs(8, rng)
    (path,) = w.extend(originals, 0, CREATED)
    members = list(iter_archive(path))
    assert [name for name, _ in members] == [member_name(i) for i in range(8)]
    assert [blob for _, blob in members] == originals


def test_tar_file_naming(tmp_path, rng):
    w = ArchiveWriter(tmp_path, per_tar=2)
    (path,) = w.extend(_blobs(2, rng), 0, CREATED)
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
    ours = [path for blob, meta in zip(blobs, metas) for path in w.extend([blob], meta.seq, mtime)]
    ours = [path for path in [*ours, w.close()] if path is not None]
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
        w.extend([blob], 0, mtime)
    assert list(tmp_path.iterdir()) == []
    # the rejected member left no trace: the next one starts the TAR
    w.extend([b"ok"], 0, 5)
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
    (path,) = w.extend(_blobs(5, rng), 0, CREATED)
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
    (path,) = w.extend(_blobs(3, rng), 0, CREATED)
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


def test_junk_after_a_tar_is_read_a_record_at_a_time(tmp_path, rng):
    (path,) = ArchiveWriter(tmp_path / "out", per_tar=5).extend(_blobs(5, rng), 0, CREATED)
    with open(path, "ab") as fh:
        for _ in range(64):
            fh.write(b"\x01" * (1 << 20))
    want = (f"byte {path.stat().st_size}, after member {member_name(4)}: "
            "record padding is cut short or not zero")
    tracemalloc.start()
    try:
        failures = verify_archive(path)
        _, verify_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        records = archive_stats(path)
        _, stats_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert failures == [want]
    assert [r.get("error") for r in records[:-1]] == [None] * 5 + [want]
    assert max(verify_peak, stats_peak) < 1 << 20


# --- groups of windows: one encoder and one writer for many members ----------

# small coordinates make windows share rows and fold duplicates; any window
# may be empty or hold a single entry
_coordinate = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))
_window = st.lists(st.tuples(_coordinate, _coordinate, st.integers(1, 2**40)), max_size=6)


def _tar_bytes(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.tar"))}


@given(
    windows=st.lists(_window, min_size=1, max_size=12),
    first_seq=st.integers(0, 2**40),
    created=st.integers(0, 8**11 - 1),
    shuffle=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.integers(0, 12), max_size=4),
    per_tar=st.sampled_from([1, 3, 64]),
)
@settings(max_examples=150, deadline=None)
def test_group_encodes_and_writes_as_its_windows_one_by_one(
    windows, first_seq, created, shuffle, cuts, per_tar
):
    table = np.array([(k, *t) for k, window in enumerate(windows) for t in window],
                     dtype=np.uint64).reshape(-1, 4)
    # the triples' order must not matter
    segs, rows, cols, vals = table[np.random.default_rng(shuffle).permutation(len(table))].T
    group = build_segments(segs.astype(np.int64), rows.astype(np.uint32),
                           cols.astype(np.uint32), vals, len(windows))
    totals = [sum(v for *_, v in window) for window in windows]
    blobs = encode_group(group, first_seq, totals, created)
    metas = [MatrixMeta(first_seq + k, total, created) for k, total in enumerate(totals)]
    matrices = [build(window) for window in windows]
    assert blobs == [encode_one(m, meta) for m, meta in zip(matrices, metas)]
    assert blobs == [encode_v2(m, meta) for m, meta in zip(matrices, metas)]

    # the members in runs of consecutive windows, and one at a time
    bounds = sorted({0, len(blobs), *(c for c in cuts if c <= len(blobs))})
    with tempfile.TemporaryDirectory() as tmp:
        runs, alone = Path(tmp) / "runs", Path(tmp) / "alone"
        w = ArchiveWriter(runs, per_tar=per_tar)
        finalized = []
        for lo, hi in zip(bounds, bounds[1:]):
            finalized += w.extend(blobs[lo:hi], first_seq + lo, created)
        finalized.append(w.close())
        w = ArchiveWriter(alone, per_tar=per_tar)
        one_by_one = [path for seq, blob in enumerate(blobs, first_seq)
                      for path in w.extend([blob], seq, created)] + [w.close()]
        assert [p.name for p in finalized if p] == [p.name for p in one_by_one if p]
        assert _tar_bytes(runs) == _tar_bytes(alone)
        assert len(_tar_bytes(runs)) == -(-len(blobs) // per_tar)


@pytest.mark.parametrize("per_tar", [2, 3], ids=["tar_full", "tar_open"])
def test_group_write_of_a_non_ascending_seq_writes_nothing(tmp_path, per_tar):
    w = ArchiveWriter(tmp_path, per_tar=per_tar)
    w.extend([b"a", b"b"], 0, 5)
    # the group would start a new TAR, or finish the open one and start another
    with pytest.raises(ValueError, match="ascending"):
        w.extend([b"c", b"d", b"e"], 1, 5)
    w.close()
    assert list(tmp_path.iterdir()) == [tmp_path / "5_0.tar"]
    assert _tarfile_members(tmp_path / "5_0.tar") == [(member_name(0), b"a"), (member_name(1), b"b")]


@pytest.mark.parametrize("written", [0, 2], ids=["first", "after_two"])
@pytest.mark.parametrize("blob, mtime", [(b"x", 8**11), (_Huge(), 5)], ids=["mtime", "size"])
def test_group_write_with_an_unrepresentable_header_writes_nothing(tmp_path, written, blob, mtime):
    w = ArchiveWriter(tmp_path, per_tar=3)
    if written:
        w.extend([b"a", b"b"], 0, 5)
    # the last member's size or every member's mtime overflows; the group
    # runs past the end of the open TAR
    with pytest.raises(ValueError, match="overflows"):
        w.extend([b"c", b"d", blob], written, mtime)
    path = w.close()
    if written:
        assert list(tmp_path.iterdir()) == [path]
        assert _tarfile_members(path) == [(member_name(0), b"a"), (member_name(1), b"b")]
    else:
        assert path is None
        assert list(tmp_path.iterdir()) == []
