"""Grouped decoding in archive_stats and verify_archive against the per-member oracle.

The oracles in conftest decode every member alone with decode_matrix, as the
read side did before members were grouped. Every output must be equal to
theirs, record for record and failure for failure, on good and damaged TARs.
"""

import random

import numpy as np
import pytest

from flowmat.archive import (
    GROUP_ENTRIES, GROUP_MEMBER_ENTRIES, ArchiveWriter, IntegrityError, decode_matrix,
    encode_group, iter_archive, iter_member_groups,
)
from flowmat.hypermat import MatrixGroup, MatrixMeta, build_segments, packet_totals
from flowmat.pipeline import verify_archive
from flowmat.stats import archive_stats
from tests.conftest import (
    blob_version, build, encode_v1, encode_v2, one_matrix, per_member_stats, per_member_verify,
    with_crc,
)

CREATED = 1_724_000_000


def _assert_same_as_oracle(path):
    records = archive_stats(path)
    assert records == per_member_stats(path)
    failures = verify_archive(path)
    assert failures == per_member_verify(path)
    return records, failures


def test_grouped_equals_per_member_on_good_archives(shaped_tars):
    for path in [path for paths in shaped_tars.values() for path in paths]:
        records, failures = _assert_same_as_oracle(path)
        assert failures == []
        assert all("error" not in r for r in records)


def _regions(data: bytes) -> dict[str, list[range]]:
    """Byte ranges of a TAR's ustar headers, blob headers and prefixes, LZ4
    data, and zero padding (after each blob and at the end)."""
    regions = {"ustar": [], "blob_header": [], "section": [], "padding": []}
    end = 0
    for offset, blob in _members(data):
        regions["ustar"].append(range(offset, offset + 512))
        start = offset + 512
        if blob_version(blob) == 2:
            regions["blob_header"].append(range(start, start + 84))
            regions["section"].append(range(start + 84, start + len(blob)))
        else:
            regions["blob_header"].append(range(start, start + 64))
            pos = 64
            for _ in range(4):
                comp_len = int.from_bytes(blob[pos + 8 : pos + 16], "little")
                regions["blob_header"].append(range(start + pos, start + pos + 16))
                if comp_len:
                    regions["section"].append(
                        range(start + pos + 16, start + pos + 16 + comp_len))
                pos += 16 + comp_len
        end = start + len(blob) + -len(blob) % 512
        if len(blob) % 512:
            regions["padding"].append(range(start + len(blob), end))
    regions["padding"].append(range(end, len(data)))
    return regions


def _members(data: bytes):
    """(header offset, blob) of each member of an intact TAR."""
    offset = 0
    while data[offset : offset + 512] != bytes(512):
        size = int(data[offset + 124 : offset + 135], 8)
        yield offset, data[offset + 512 : offset + 512 + size]
        offset += 512 + size + -size % 512


def test_grouped_equals_per_member_under_bit_flips(shaped_tars, tmp_path):
    # version 1 blobs carry no checksum, so flips reach every later check
    rnd = random.Random(707)
    bad = tmp_path / "bad.tar"
    seen = set()
    flagged_in_groups = 0
    sources = [p.read_bytes() for p in shaped_tars["elephant_v1"] + shaped_tars["uniform_v1"]]
    layouts = [_regions(data) for data in sources]
    for case in range(520):
        data, regions = sources[case % len(sources)], layouts[case % len(sources)]
        kind = rnd.choice(sorted(regions))
        flipped = bytearray(data)
        for _ in range(rnd.choice((1, 1, 2, 3, 8))):
            where = rnd.choice(regions[kind])
            flipped[rnd.choice(where)] ^= 1 << rnd.randrange(8)
        bad.write_bytes(flipped)
        _, failures = _assert_same_as_oracle(bad)
        seen.update(_category(failure) for failure in failures)
        flagged_in_groups += _flagged_in_groups(bad)
    # the flips reached every way a member or a TAR can fail, and members that
    # passed their plan were flagged inside a group and decoded alone
    assert seen == {"container", "blob header", "raw length", "decompression", "canonical",
                    "re-encode", "packet_total"}, seen
    assert flagged_in_groups > 50


def test_every_bit_flip_in_a_v2_member_is_reported(shaped_tars, tmp_path):
    rnd = random.Random(808)
    bad = tmp_path / "bad.tar"
    seen = set()
    sources = [p.read_bytes() for p in shaped_tars["elephant"] + shaped_tars["uniform"]]
    layouts = [_regions(data) for data in sources]
    for case in range(300):
        data, regions = sources[case % len(sources)], layouts[case % len(sources)]
        kind = rnd.choice(["blob_header", "section"])
        flipped = bytearray(data)
        for _ in range(rnd.choice((1, 2, 3, 8))):
            where = rnd.choice(regions[kind])
            flipped[rnd.choice(where)] ^= 1 << rnd.randrange(8)
        bad.write_bytes(flipped)
        records, failures = _assert_same_as_oracle(bad)
        changed = [name for (name, blob), (_, old) in zip(iter_archive(bad), _named(data))
                   if blob != old]
        assert [failure.split(":")[0] for failure in failures] == changed
        assert [r["member"] for r in records[:-1] if "error" in r] == changed
        seen.update(_category(failure) for failure in failures)
    assert seen == {"blob header", "raw length", "checksum"}, seen


def _named(data: bytes):
    """(name, blob) of each member of an intact TAR."""
    for offset, blob in _members(data):
        yield data[offset : offset + 100].rstrip(b"\0").decode(), blob


def _flagged_in_groups(path) -> int:
    flagged = 0
    try:
        for group in iter_member_groups(path):
            if len(group.names) > 1:
                flagged += group.metas.count(None)
    except IntegrityError:
        pass
    return flagged


def _category(failure: str) -> str:
    for marker, category in [
        ("byte ", "container"), ("magic", "blob header"), ("version", "blob header"),
        ("dimensions", "blob header"), ("truncated", "blob header"), ("trailing", "blob header"),
        ("fails decompression", "decompression"), ("crc32", "checksum"),
        ("not strictly increasing", "canonical"), ("inconsistent", "canonical"),
        ("zero entries", "canonical"), ("raw length", "raw length"),
        ("re-encode", "re-encode"), ("packet_total", "packet_total"),
    ]:
        if marker in failure:
            return category
    return failure


def _matrix(rng, entries: int) -> MatrixGroup:
    """A matrix of exactly `entries` entries on a grid about half full, so
    rows and columns hold varied numbers of entries."""
    side = int(np.ceil(np.sqrt(2 * entries))) + 1
    cells = rng.choice(side * side, size=entries, replace=False)
    rows = (cells // side).astype(np.uint32) * np.uint32(7919)
    cols = (cells % side).astype(np.uint32) * np.uint32(104_729)
    vals = rng.integers(1, 1 << 20, size=entries, dtype=np.uint64)
    return build(zip(rows.tolist(), cols.tolist(), vals.tolist()))


def _write_tar(directory, matrices, encoders=(encode_v2,)):
    """Path of one TAR holding the matrices, in order, member i encoded by
    encoders[i % len(encoders)]."""
    blobs = [
        encoders[seq % len(encoders)](m, MatrixMeta(seq, int(m.vals.sum(dtype=np.uint64)), CREATED))
        for seq, m in enumerate(matrices)
    ]
    (path,) = ArchiveWriter(directory, per_tar=len(matrices)).extend(blobs, 0, CREATED)
    return path


def test_grouping_boundaries(tmp_path, rng):
    bound = GROUP_MEMBER_ENTRIES
    sizes = [0, 1, 1, bound, bound + 1, 1, 0]
    # more small members than one group holds, then a few past the flush
    sizes += [bound] * (GROUP_ENTRIES // (bound + 1) + 3) + [1]
    path = _write_tar(tmp_path, [_matrix(rng, n) for n in sizes])

    records, failures = _assert_same_as_oracle(path)
    assert failures == []
    assert [r["nvals"] for r in records[:-1]] == sizes
    assert records[0] == {"member": "00000000000000000000.grb", "seq": 0, "packet_total": 0,
                          "nvals": 0, "unique_sources": 0, "unique_destinations": 0,
                          "max_fanout": 0, "max_fanin": 0, "degree_histogram": {}}
    assert records[-1]["members"] == len(sizes)

    groups = [(len(g.names), g.metas.count(None)) for g in iter_member_groups(path)]
    # the member over the bound comes alone, after the four before it; the next
    # group closes at its 64th member of 256 entries (3 + 64 * 257 >= 2^14)
    assert groups == [(4, 0), (1, 1), (66, 0), (3, 0)]


def test_mixed_versions_read_the_same_grouped_as_per_member(tmp_path, rng):
    bound = GROUP_MEMBER_ENTRIES
    sizes = [0, 3, 1, bound + 1, 7, 1, 200, 5, bound + 20, 2, 0]
    matrices = [_matrix(rng, n) for n in sizes]
    path = _write_tar(tmp_path / "mixed", matrices, encoders=(encode_v1, encode_v2))
    records, failures = _assert_same_as_oracle(path)
    assert failures == []
    assert records == archive_stats(_write_tar(tmp_path / "v2", matrices))
    versions = [[blob_version(blob) for blob in g.blobs] for g in iter_member_groups(path)]
    assert versions == [[1, 2, 1], [2], [1, 2, 1, 2], [1], [2, 1]]


def test_group_of_empty_matrices(tmp_path):
    path = _write_tar(tmp_path, [build([])] * 3)
    records, failures = _assert_same_as_oracle(path)
    assert failures == [] and records[-1]["members"] == 3
    assert [(len(g.names), g.metas.count(None)) for g in iter_member_groups(path)] == [(3, 0)]


def test_windows_built_together_read_back_as_their_group(tmp_path, rng):
    n, nseg = 80, 7
    segs = rng.integers(0, nseg, size=n)
    segs[segs == 2] = 4  # window 2 is empty
    rows = rng.integers(0, 6, size=n).astype(np.uint32)
    cols = rng.integers(0, 6, size=n).astype(np.uint32)
    vals = rng.integers(1, 1 << 40, size=n, dtype=np.uint64)
    built = build_segments(segs, rows, cols, vals, nseg)
    blobs = encode_group(built, 0, packet_totals(built), CREATED)
    (path,) = ArchiveWriter(tmp_path, per_tar=nseg).extend(blobs, 0, CREATED)
    (group,) = iter_member_groups(path)
    assert group.metas.count(None) == 0
    assert group.matrices == built
    assert group.packet_sums == packet_totals(built)
    assert group.packet_sums[2] == 0


def test_cut_inside_pending_group_reports_members_before_the_cut(shaped_tars, tmp_path):
    data = shaped_tars["elephant"][0].read_bytes()
    offsets = [offset for offset, _ in _members(data)]
    cut = tmp_path / "cut.tar"
    cut.write_bytes(data[: offsets[40] + 512 + 30])  # inside member 40's blob
    records, failures = _assert_same_as_oracle(cut)
    members = [r["member"] for r in records[:-1]]
    assert members == [f"{seq:020d}.grb" for seq in range(40)] + [f"byte {offsets[40]}"]
    assert all("error" not in r for r in records[:40])
    assert failures == [f"byte {offsets[40]}, after member {39:020d}.grb: "
                        f"member {40:020d}.grb cut short"]


def _crafted(rows_present, row_ptr, col_ids, vals) -> MatrixGroup:
    """A matrix that may break canonical form, as a corrupt blob would hold it."""
    return one_matrix(
        rows_present=np.array(rows_present, dtype=np.uint32),
        row_ptr=np.array(row_ptr, dtype=np.uint64),
        col_ids=np.array(col_ids, dtype=np.uint32),
        vals=np.array(vals, dtype=np.uint64),
    )


# offsets whose signed steps all look positive, since they wrap through 2^63
WRAPPING_ROW_PTR = [0, 0x6000_0000_0000_0000, 0xC000_0000_0000_0000, 4]

# (rows_present, row_ptr, col_ids), each breaking one check of decode_matrix
NONCANONICAL = {
    "rows": ([5, 5, 9], [0, 1, 2, 3], [1, 2, 3]),
    "row_ptr_end": ([1, 2], [0, 1, 2], [1, 2, 3]),
    "row_ptr_step": ([1, 2, 3], [0, 2, 1, 3], [1, 2, 3]),
    "row_ptr_huge": ([1, 2], [0, 1 << 40, 3], [1, 2, 3]),
    "row_ptr_wrap": ([1, 2, 3], WRAPPING_ROW_PTR, [1, 2, 3, 4]),
    "cols": ([1, 2], [0, 2, 3], [8, 8, 1]),
    "vals": ([1, 2], [0, 2, 3], [1, 2, 1]),
}


@pytest.mark.parametrize("case", sorted(NONCANONICAL))
def test_noncanonical_member_is_reported_alone(tmp_path, rng, case):
    rows_present, row_ptr, col_ids = NONCANONICAL[case]
    vals = [1] * len(col_ids)
    vals[-1] = 0 if case == "vals" else 1
    corrupt = _crafted(rows_present, row_ptr, col_ids, vals)
    path = _write_tar(tmp_path, [_matrix(rng, 5), corrupt, _matrix(rng, 3), _matrix(rng, 7)])
    records, failures = _assert_same_as_oracle(path)
    assert [("error" in r) for r in records[:-1]] == [False, True, False, False]
    section = {"rows": "rows_present", "cols": "col_ids", "vals": "vals"}.get(case, "row_ptr")
    assert records[1]["error"].startswith(f"section {section} ")
    assert len(failures) == 1


def test_wrapping_row_offsets_are_an_integrity_error():
    m = _crafted([0, 1, 2], WRAPPING_ROW_PTR, [0, 1, 2, 3], [1, 1, 1, 1])
    with pytest.raises(IntegrityError, match="section row_ptr not strictly increasing"):
        decode_matrix(encode_v2(m, MatrixMeta(0, 4, CREATED)))


def _member(rng, seq: int, entries: int, encode=encode_v2) -> bytes:
    m = _matrix(rng, entries)
    return encode(m, MatrixMeta(seq, int(m.vals.sum(dtype=np.uint64)), CREATED))


def _reported_alone(tmp_path, rng, blob, message, encode):
    """A TAR of blob between two sound members reports message for it alone."""
    blobs = [_member(rng, 0, 5, encode), blob, _member(rng, 2, 3, encode)]
    (path,) = ArchiveWriter(tmp_path, per_tar=3).extend(blobs, 0, CREATED)
    records, failures = _assert_same_as_oracle(path)
    assert [r.get("error") for r in records[:-1]] == [None, message, None]
    assert failures == [f"{1:020d}.grb: {message}"]


def test_layout_fault_is_named_before_a_decompression_fault(tmp_path, rng):
    blob = bytearray(_member(rng, 1, 5, encode_v1))
    prefixes, offset = [], 64  # fixed header size
    for _ in range(4):
        prefixes.append(offset)
        offset += 16 + int.from_bytes(blob[offset + 8 : offset + 16], "little")
    # a literal run past the end of the block
    blob[prefixes[0] + 16 : prefixes[1]] = b"\xff" * (prefixes[1] - prefixes[0] - 16)
    with pytest.raises(IntegrityError, match="section rows_present fails decompression"):
        decode_matrix(bytes(blob))
    raw_len = int.from_bytes(blob[prefixes[2] : prefixes[2] + 8], "little")
    blob[prefixes[2] : prefixes[2] + 8] = (raw_len + 4).to_bytes(8, "little")
    message = f"section col_ids raw length {raw_len + 4} disagrees with header"
    with pytest.raises(IntegrityError, match=message):
        decode_matrix(bytes(blob))
    _reported_alone(tmp_path, rng, bytes(blob), message, encode_v1)


def test_v2_layout_fault_is_named_before_a_checksum_or_decompression_fault(tmp_path, rng):
    blob = _member(rng, 1, 5)
    # a literal run past the end of the block, behind a matching CRC
    blob = with_crc(blob[:84] + b"\xff" * (len(blob) - 84))
    with pytest.raises(IntegrityError, match="^block fails decompression$"):
        decode_matrix(blob)
    blob = bytearray(blob)
    blob[-1] ^= 1
    with pytest.raises(IntegrityError, match="^crc32 "):
        decode_matrix(bytes(blob))
    raw_len = int.from_bytes(blob[64:72], "little")
    blob[64:72] = (raw_len + 4).to_bytes(8, "little")
    message = f"block raw length {raw_len + 4} disagrees with header"
    with pytest.raises(IntegrityError, match=message):
        decode_matrix(bytes(blob))
    _reported_alone(tmp_path, rng, bytes(blob), message, encode_v2)
