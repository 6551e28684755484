"""Bit-exact matrix blob serialization and rotating TAR archives.

Blob layout, version 2 (all little-endian):
  header: magic "HSTM", version u32=2, nrows u64, ncols u64, nvals u64,
          nrows_present u64, seq u64, packet_total u64, created_unix_s u64
  then raw_len u64, comp_len u64, crc32 u32, and one LZ4 block of raw_len
          bytes that holds four sections back to back: rows_present u32[],
          row_ptr u64[], col_ids u32[], vals u64[]
  crc32 is zlib.crc32 over every byte of the blob except its own four.

Version 1 blobs are still read. They carry the same header with version 1
and then the four sections each as its own LZ4 block, each prefixed with its
raw_len u64 and comp_len u64, and no checksum. Only version 2 is written.

Ingest encodes and writes windows a group at a time, never one by one:
encode_group turns the matrices of one segmented build (a
hypermat.MatrixGroup) into their blobs, and ArchiveWriter.extend writes
them as consecutive members, rotating TARs inside the run, with one write
per TAR it reaches, after checking every member's header.

Blobs are grouped DEFAULT_PER_TAR (64) per POSIX ustar TAR; member names are
the 20-digit zero-padded window sequence number plus ".grb", so lexicographic
order is sequence order. TAR files are named "<created_unix_s>_<seq>.tar"
after their first member.

The TAR container (IEEE Std 1003.1, pax utility, ustar interchange format) is
written and read here, without tarfile. Every member header is one constant
512-byte template (mode 0644, uid and gid 0, empty uname and gname, type '0')
with four fields patched: the name, NUL-padded to 100 bytes; size and mtime,
each 11 octal digits and a NUL; and the checksum, 6 octal digits, a NUL and a
space, that is the template's byte sum plus the sum of the patched bytes. The
blob follows, zero-padded to 512 bytes. A TAR ends with two zero blocks and
zero padding to a multiple of 10240 bytes. These are the bytes tarfile writes
for the same members.

The reader walks the headers. Each must carry a checksum equal to its byte
sum (the checksum field counted as spaces), the POSIX magic "ustar", NUL,
"00" or GNU's "ustar", two spaces, NUL, an octal size, an ASCII name (joined
to the ustar prefix field when that is set) and type '0' or NUL. The walk
must end in two zero blocks and a whole 10240-byte record. Anything else,
including a file cut short anywhere, raises ContainerError after the members
before it have been yielded.

One function, _layout, checks a blob's layout for both readers below and
both versions, before anything is decompressed or allocated: magic,
version, dimensions, each block's raw length against the header's item
counts and against what its compressed length can expand to, truncation,
trailing bytes and, for version 2, the CRC32. Both readers then decompress a
blob's blocks into consecutive regions of one buffer, slice the sections out
by the header's counts and check them for canonical form.

verify and stats read a TAR through one walk, read_members, over groups of
members (iter_member_groups). A member of at most GROUP_MEMBER_ENTRIES
entries whose layout passes joins a group; a group's blocks are decompressed
into one buffer, each section is gathered from it by index, and the
canonical-form checks run once, with a segment id per member. The members
that pass are one hypermat.MatrixGroup, as the windows of one build were.
Larger members, and members the grouped checks flag, are decoded alone on
decode_matrix's path, into a MatrixGroup of one; that path stays the
reference for every check and message. A corrupt member is reported and
the walk goes on. verify_archive is one loop over that walk;
stats.archive_stats is another.
"""

from __future__ import annotations

import itertools
import operator
import struct
import threading
import zlib
from pathlib import Path

import numpy as np

from flowmat import lz4block
from flowmat.hypermat import DIMENSION, MatrixGroup, MatrixMeta, packet_totals, segment_ranges

MAGIC = b"HSTM"
DEFAULT_PER_TAR = 64

_HEADER = struct.Struct("<4sIQQQQQQQ")
_LENGTHS = struct.Struct("<QQ")  # raw_len, comp_len: version 1's prefix of each section
_V2_PREFIX = struct.Struct("<QQI")  # raw_len, comp_len, crc32: version 2's of its block
_V2_HEAD = struct.Struct(_HEADER.format + "QQ")  # a version 2 blob up to its CRC
_V2_BLOCK_AT = _HEADER.size + _V2_PREFIX.size

_SECTIONS = (
    ("rows_present", np.dtype("<u4")),
    ("row_ptr", np.dtype("<u8")),
    ("col_ids", np.dtype("<u4")),
    ("vals", np.dtype("<u8")),
)
# ints, read once: dtype.itemsize in _layout's per-member loop slows the grouped reader
_ITEM_SIZES = tuple(dtype.itemsize for _, dtype in _SECTIONS)
# the names of a blob's blocks in messages, by version
_BLOCK_NAMES = {1: tuple(f"section {name}" for name, _ in _SECTIONS), 2: ("block",)}

# In an LZ4 block every byte of output costs at least 1/255 byte of input: a
# literal costs one byte, and a match's length grows by at most 255 per byte
# spent on it. So no block of n bytes decompresses to more than 255 * n.
_MAX_EXPANSION = 255


class IntegrityError(ValueError):
    """Blob fails structural validation; message names the bad part."""


class ContainerError(IntegrityError):
    """The TAR around the blobs is corrupt or cut short at byte offset."""

    def __init__(self, offset: int, after: str | None, problem: str):
        where = f"after member {after}" if after else "before any member"
        super().__init__(f"byte {offset}, {where}: {problem}")
        self.offset = offset


def encode_group(group: MatrixGroup, first_seq: int, packet_totals, created_unix_s: int
                 ) -> list[bytes]:
    """The version 2 blobs of a group's matrices, in order.

    Matrix k is window first_seq + k of packet_totals[k] packets. Its four
    sections are sliced out of the group's arrays without copies and joined
    into the buffer its LZ4 block is compressed from.
    """
    arrays = (group.rows_present, group.row_ptr, group.col_ids, group.vals)
    row_bounds, entry_bounds = group.row_bounds.tolist(), group.entry_bounds.tolist()
    # the sections' dtypes: 4 + 8 bytes a row, 4 + 8 an entry, 8 for each row_ptr's end
    if (tuple(a.itemsize for a in arrays) != _ITEM_SIZES or group.nbytes
            != 12 * (row_bounds[-1] + entry_bounds[-1]) + 8 * (len(row_bounds) - 1)):
        raise ValueError("matrix arrays do not have the blob sections' dtypes")
    rows_present, row_ptr, col_ids, vals = map(memoryview, arrays)
    blobs = []
    for k, (seq, packet_total, r0, r1, e0, e1) in enumerate(zip(
        itertools.count(first_seq), packet_totals, row_bounds, row_bounds[1:],
        entry_bounds, entry_bounds[1:],
    )):
        # row_ptr holds one more item a matrix: its end offset
        raw = b"".join((rows_present[r0:r1], row_ptr[r0 + k:r1 + k + 1], col_ids[e0:e1],
                        vals[e0:e1]))
        block = lz4block.compress(raw)
        head = _V2_HEAD.pack(MAGIC, 2, DIMENSION, DIMENSION, e1 - e0, r1 - r0, seq,
                             packet_total, created_unix_s, len(raw), len(block))
        blobs.append(b"".join((head, _crc32(head, block).to_bytes(4, "little"), block)))
    return blobs


def _crc32(head, block) -> int:
    """A version 2 blob's CRC: head is the blob before the CRC field, block the rest."""
    return zlib.crc32(block, zlib.crc32(head))


def decode_matrix(blob: bytes) -> tuple[MatrixGroup, MatrixMeta]:
    """The blob's matrix, as a group of one, and its header's meta."""
    matrix, meta, _ = _decode(blob)
    return matrix, meta


def _decode(blob: bytes):
    """(matrix, meta, (buf, bounds, stored)): decode_matrix's result, then the
    buffer the blob's blocks were decompressed into, the bounds of each
    block's region in it and the stored blocks."""
    meta, nrows_present, nvals, blocks = _layout(blob)
    buf, bounds, stored, failed = _decompress([(blob, blocks)], _scratch.buf)
    _scratch.buf = buf
    if failed:
        raise IntegrityError(f"{blocks[failed[0]][0]} fails decompression")
    arrays, offset = {}, 0
    for (name, dtype), count in zip(_SECTIONS, _item_counts(nrows_present, nvals)):
        arrays[name] = np.frombuffer(buf, dtype, count, offset).copy()
        offset += count * dtype.itemsize
    _check_canonical(arrays, nvals)
    matrix = MatrixGroup(**arrays, row_bounds=np.array([0, nrows_present]),
                         entry_bounds=np.array([0, nvals]))
    return matrix, meta, (buf, bounds, stored)


def _same_blocks(buf: bytearray, bounds: list[int], stored: list[bytes]):
    """For each region of buf between adjacent bounds: does it compress to its stored block?"""
    return map(operator.eq, lz4block.compress_slices(buf, bounds), stored)


def _decompress(members: list, buf: bytearray | None = None) -> tuple:
    """Decompress every block of the (blob, blocks) members, in order, into one
    buffer: buf when it is long enough, else a new one.

    Returns the buffer, the bounds of the blocks' regions in it, the stored
    blocks and the indices of those that fail, as decompress_slices gives them.
    """
    stored = [blob[start:stop] for blob, blocks in members for _, start, stop, _ in blocks]
    raw_lens = (raw_len for _, blocks in members for *_, raw_len in blocks)
    bounds = [0, *itertools.accumulate(raw_lens)]
    if buf is None or len(buf) < bounds[-1]:
        buf = bytearray(bounds[-1])
    return buf, bounds, stored, lz4block.decompress_slices(stored, buf, bounds)


class _Scratch(threading.local):
    """The buffer _decode decompresses into, per thread, grown to the largest blob.

    _decode copies the sections out, so a large member does not cost a fresh
    buffer's page faults: on suricata_mixed members of ~13k entries, a new
    300 KB buffer per member made verify and stats about a fifth slower
    (2-vCPU x86 host).
    """

    def __init__(self) -> None:
        self.buf = bytearray()


_scratch = _Scratch()


def _item_counts(nrows_present, nvals) -> tuple:
    """Items in each of _SECTIONS, from the header's counts (ints or arrays)."""
    return nrows_present, nrows_present + 1, nvals, nvals


def _layout(blob: bytes):
    """(meta, nrows_present, nvals, blocks) of a blob whose layout is sound.

    Makes every check that needs no decompression: magic, version,
    dimensions, each block's raw length against the header's item counts
    and against what its compressed length can expand to, truncation,
    trailing bytes and, for version 2, the CRC32. A block is (name, start,
    stop, raw length), start and stop bounding its LZ4 data in the blob:
    version 1 has one block per section, version 2 one for all four.
    IntegrityError names the first check that fails.
    """
    size = len(blob)
    if size < _HEADER.size:
        raise IntegrityError("blob shorter than header")
    magic, version, nrows, ncols, nvals, nrows_present, seq, packet_total, created = (
        _HEADER.unpack_from(blob)
    )
    if magic != MAGIC:
        raise IntegrityError(f"bad magic {magic!r}")
    names = _BLOCK_NAMES.get(version)
    if names is None:
        raise IntegrityError(f"unsupported version {version}")
    if nrows != DIMENSION or ncols != DIMENSION:
        raise IntegrityError(f"unexpected dimensions {nrows}x{ncols}")

    # exact raw lengths from the header, checked before any buffer is sized
    raw_lens = list(map(operator.mul, _item_counts(nrows_present, nvals), _ITEM_SIZES))
    prefix = _LENGTHS
    if version == 2:
        raw_lens, prefix = [sum(raw_lens)], _V2_PREFIX
    offset = _HEADER.size
    blocks = []
    for name, expected in zip(names, raw_lens):
        if size < offset + prefix.size:
            raise IntegrityError(f"truncated before {name}")
        raw_len, comp_len, *crc = prefix.unpack_from(blob, offset)
        offset += prefix.size
        if raw_len != expected:
            raise IntegrityError(f"{name} raw length {raw_len} disagrees with header")
        if raw_len > _MAX_EXPANSION * comp_len:
            raise IntegrityError(
                f"{name} raw length {raw_len} is more than {comp_len} LZ4 bytes can hold"
            )
        if size < offset + comp_len:
            raise IntegrityError(f"truncated inside {name}")
        blocks.append((name, offset, offset + comp_len, raw_len))
        offset += comp_len
    if offset != size:
        raise IntegrityError(f"trailing bytes after {names[-1]}")
    if crc:
        view = memoryview(blob)
        computed = _crc32(view[:_V2_HEAD.size], view[_V2_BLOCK_AT:])
        if crc[0] != computed:
            raise IntegrityError(f"crc32 {crc[0]:08x} is not the blob's {computed:08x}")
    return MatrixMeta(seq, packet_total, created), nrows_present, nvals, blocks


def _check_canonical(arrays: dict, nvals: int) -> None:
    """Reject blobs whose arrays are not in canonical form.

    A version 1 blob carries no checksum, and a version 2 blob can be made
    with a matching one, so a decoded matrix must also pass the matrix
    invariants that the stats rely on: sorted unique rows, sorted columns per
    row, consistent offsets, no zero values.
    """
    rows_present = arrays["rows_present"]
    row_ptr = arrays["row_ptr"]
    col_ids = arrays["col_ids"]
    vals = arrays["vals"]
    if (rows_present[1:] <= rows_present[:-1]).any():
        raise IntegrityError("section rows_present not strictly increasing")
    if row_ptr[0] != 0 or row_ptr[-1] != nvals:
        raise IntegrityError("section row_ptr endpoints inconsistent")
    # compared unsigned, so every offset then lies in [0, nvals]
    if (row_ptr[1:] <= row_ptr[:-1]).any():
        raise IntegrityError("section row_ptr not strictly increasing")
    if nvals > 1:
        step_down = col_ids[1:] <= col_ids[:-1]
        step_down[row_ptr[1:-1].astype(np.int64) - 1] = False  # where a row starts
        if step_down.any():
            raise IntegrityError("section col_ids not strictly increasing within a row")
    if (vals == 0).any():
        raise IntegrityError("section vals contains zero entries")


def member_name(seq: int) -> str:
    return f"{seq:020d}.grb"


_BLOCK = 512
_RECORD = 10240  # 20 blocks: tarfile's and GNU tar's default record size
_ZERO_BLOCK = bytes(_BLOCK)
_USTAR_MAGIC = b"ustar\x0000"
_GNU_MAGIC = b"ustar  \x00"
_OCTAL_LIMIT = 8**11  # 11 octal digits and a NUL fill a 12-byte field

# name, size and mtime are NUL and the checksum holds the spaces it is summed as
_TEMPLATE = (
    bytes(100)  # name
    + b"0000644\x00"  # mode
    + b"0000000\x00" * 2  # uid, gid
    + bytes(24)  # size, mtime
    + b" " * 8  # checksum
    + b"0"  # type: regular file
    + bytes(100)  # linkname
    + _USTAR_MAGIC  # magic, version
    + bytes(247)  # uname, gname, devmajor, devminor, prefix, padding
)
_TEMPLATE_SUM = sum(_TEMPLATE)
_MODE_IDS = _TEMPLATE[100:124]
_AFTER_CHECKSUM = _TEMPLATE[156:]


def _ustar_headers(first_seq: int, blobs, mtime: int) -> list[bytes]:
    """The headers of blobs as members first_seq, first_seq + 1, ..., all of one mtime."""
    if not 0 <= mtime < _OCTAL_LIMIT:
        raise ValueError(f"member mtime {mtime} overflows a ustar field")
    mtime_field = b"%011o\x00" % mtime
    fixed_sum = _TEMPLATE_SUM + sum(mtime_field)
    headers = []
    for seq, blob in zip(itertools.count(first_seq), blobs):
        name, size = member_name(seq).encode("ascii"), len(blob)
        if len(name) > 100:
            raise ValueError(f"member name {name!r} longer than 100 bytes")
        if not 0 <= size < _OCTAL_LIMIT:
            raise ValueError(f"member size {size} overflows a ustar field")
        size_field = b"%011o\x00" % size
        checksum = fixed_sum + sum(name) + sum(size_field)
        headers.append(b"".join((
            name.ljust(100, b"\x00"), _MODE_IDS, size_field, mtime_field,
            b"%06o\x00 " % checksum, _AFTER_CHECKSUM,
        )))
    return headers


class ArchiveWriter:
    """Writes blobs into rotating ustar TARs of per_tar members each."""

    def __init__(self, out_dir: str | Path, per_tar: int = DEFAULT_PER_TAR):
        if per_tar < 1:
            raise ValueError("per_tar must be >= 1")
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.per_tar = per_tar
        self._fh = None
        self._members_in_tar = 0
        self._last_seq: int | None = None

    def extend(self, blobs: list[bytes], first_seq: int, created_unix_s: int) -> list[Path]:
        """Add blobs as members first_seq, first_seq + 1, ...; returns the TARs this finalizes.

        The members of each TAR go to it in one write. Raises ValueError, with
        nothing written, when first_seq does not ascend or any blob's size or
        the mtime does not fit its ustar field, and FileExistsError, leaving
        that file as it was, when a new TAR's name is taken; the members
        before that TAR are then written.
        """
        if self._last_seq is not None and first_seq <= self._last_seq:
            raise ValueError(f"seq {first_seq} not ascending past {self._last_seq}")
        headers = _ustar_headers(first_seq, blobs, created_unix_s)
        finalized = []
        done = 0
        while done < len(blobs):
            seq = first_seq + done
            if self._fh is None:
                self._fh = open(self.out_dir / f"{created_unix_s}_{seq}.tar", "xb")
            run = min(self.per_tar - self._members_in_tar, len(blobs) - done)
            self._fh.writelines(itertools.chain.from_iterable(
                (header, blob, _ZERO_BLOCK[: -len(blob) % _BLOCK])
                for header, blob in zip(headers[done:done + run], blobs[done:done + run])
            ))
            self._last_seq = seq + run - 1
            self._members_in_tar += run
            done += run
            if self._members_in_tar == self.per_tar:
                finalized.append(self._finalize())
        return finalized

    def _finalize(self) -> Path:
        fh = self._fh
        self._fh = None
        self._members_in_tar = 0
        with fh:
            # end-of-archive: two zero blocks, then zeros to a whole record
            fh.write(bytes(2 * _BLOCK + -(fh.tell() + 2 * _BLOCK) % _RECORD))
        return Path(fh.name)

    def close(self) -> Path | None:
        """Finalize a trailing partial TAR, if any."""
        if self._fh is None:
            return None
        return self._finalize()


def _octal(field: bytes) -> int | None:
    """Value of a NUL- or space-terminated octal field, or None."""
    digits = field.split(b"\x00", 1)[0].strip(b" ")
    if not digits or digits.lstrip(b"01234567"):
        return None
    return int(digits, 8)


def _parse_header(header: bytes) -> tuple[str, int]:
    """Name and size of a regular member; ValueError names the failed check."""
    stored = header[148:156]
    # the checksum field counts as spaces; NULs add nothing, and summing without them is faster
    computed = sum(header.translate(None, b"\0")) - sum(stored) + 8 * 0x20
    if _octal(stored) != computed:
        raise ValueError(f"header checksum {stored!r} is not its byte sum {computed:06o}")
    magic = header[257:265]
    if magic != _USTAR_MAGIC and magic != _GNU_MAGIC:
        raise ValueError(f"magic {magic!r} is not ustar")
    kind = header[156:157]
    if kind != b"0" and kind != b"\x00":
        raise ValueError(f"member type {kind!r} is not a regular file")
    size = _octal(header[124:136])
    if size is None:
        raise ValueError(f"size field {header[124:136]!r} is not octal")
    name = header[:100].split(b"\x00", 1)[0]
    if magic == _USTAR_MAGIC and header[345]:
        name = header[345:500].split(b"\x00", 1)[0] + b"/" + name
    if not name or not name.isascii():
        raise ValueError(f"member name {name!r} is empty or not ASCII")
    return name.decode("ascii"), size


def iter_archive(path: str | Path):
    """Yield (member_name, blob_bytes) from a TAR in member order.

    A header that fails its checks, a member that is not a regular file and
    a TAR cut short anywhere raise ContainerError once every member before
    that point has been yielded.
    """
    with open(path, "rb") as fh:
        offset, last = 0, None
        while (header := fh.read(_BLOCK)) != _ZERO_BLOCK:
            if len(header) < _BLOCK:
                problem = "cut inside a header" if header else "no end-of-archive block"
                raise ContainerError(offset, last, problem)
            try:
                name, size = _parse_header(header)
            except ValueError as exc:
                raise ContainerError(offset, last, str(exc)) from None
            blob = fh.read(size)
            pad = -size % _BLOCK
            if len(blob) < size or len(fh.read(pad)) < pad:
                raise ContainerError(offset, last, f"member {name} cut short")
            yield name, blob
            offset += _BLOCK + size + pad
            last = name
        if fh.read(_BLOCK) != _ZERO_BLOCK:
            raise ContainerError(offset + _BLOCK, last, "second end-of-archive block missing")
        end, zero = offset + 2 * _BLOCK, True
        while rest := fh.read(_RECORD):  # a record at a time, whatever follows the TAR
            end += len(rest)
            zero = zero and not rest.strip(b"\x00")
        if end % _RECORD or not zero:
            raise ContainerError(end, last, "record padding is cut short or not zero")


# Members of at most this many entries are decoded in groups, larger ones alone
GROUP_MEMBER_ENTRIES = 256
# No sound blob of at most GROUP_MEMBER_ENTRIES entries and rows is longer: its
# sections hold 24 bytes per entry and 8 more, and the header, the prefixes and
# LZ4's worst case (1/255 more, plus 16 bytes a block) add less than 256 bytes
_GROUP_BLOB_BYTES = 24 * GROUP_MEMBER_ENTRIES + 8 + 256
# a group is decoded once its members' entries, plus one per member, reach this
GROUP_ENTRIES = 1 << 14


class MemberGroup:
    """Consecutive members of one TAR, decoded together.

    Member i is names[i] and blobs[i]. metas[i] is its MatrixMeta when the
    grouped checks accepted it, and None when read_members must decode it
    alone and name what is wrong with it, if anything. Matrix k of the
    MatrixGroup matrices is the k-th accepted member, and packet_sums[k] its
    packet total, from packet_totals. A lone member's group has no matrices.
    """

    def __init__(self, names, blobs, metas, matrices=None, blocks=None):
        self.names = names
        self.blobs = blobs
        self.metas = metas
        self.matrices = matrices
        self.packet_sums = [] if matrices is None else packet_totals(matrices)
        self._blocks = blocks

    def reencodes(self) -> list[bool]:
        """For the k-th accepted member: does encoding it again, in its blob's
        version, give back the blob?

        Its header and prefixes passed every check, so it does exactly when
        each of its blocks, compressed again from the decoded buffer, equals
        the stored bytes, as _same_blocks tells of a member decoded alone.
        Only a group that accepted a member is asked (read_members).
        """
        buf, bounds, stored, owners = self._blocks
        same = np.ones(len(self.names), dtype=bool)
        same[owners[~np.fromiter(_same_blocks(buf, bounds, stored), bool, len(stored))]] = False
        return [ok for ok, meta in zip(same.tolist(), self.metas) if meta is not None]


def iter_member_groups(path: str | Path):
    """Yield a TAR's members in order, as MemberGroups.

    A member of at most GROUP_MEMBER_ENTRIES entries whose layout passes
    decode_matrix's checks joins the pending group, and the
    group is decoded once it reaches GROUP_ENTRIES. Any other member comes
    alone, after the pending group. A ContainerError from iter_archive is
    raised after the pending group, so no more than one group is held.
    """
    pending, entries = [], 0
    try:
        for name, blob in iter_archive(path):
            plan = _plan(blob)
            if plan is None:
                if pending:
                    yield _decode_group(pending)
                    pending, entries = [], 0
                yield MemberGroup([name], [blob], [None])
                continue
            pending.append((name, blob, plan))
            entries += plan[2] + 1
            if entries >= GROUP_ENTRIES:
                yield _decode_group(pending)
                pending, entries = [], 0
    except ContainerError:
        if pending:
            yield _decode_group(pending)
        raise
    if pending:
        yield _decode_group(pending)


def _plan(blob: bytes):
    """_layout of a blob that can join a group, or None.

    None unless the blob passes _layout, the checks decode_matrix makes
    before it decompresses, and has at most GROUP_MEMBER_ENTRIES entries and
    no more rows than entries. A blob too long for that is left to
    decode_matrix unread, so its CRC is computed once.
    """
    if len(blob) > _GROUP_BLOB_BYTES:
        return None
    try:
        plan = _layout(blob)
    except IntegrityError:
        return None
    _, nrows_present, nvals, _ = plan
    return plan if nrows_present <= nvals <= GROUP_MEMBER_ENTRIES else None


def _decode_group(members: list) -> MemberGroup:
    """Decompress members into one buffer, gather their sections by segment_ranges, check them."""
    names, blobs, plans = (list(column) for column in zip(*members))
    metas, nrows, nvals, blocks = zip(*plans)
    buf, bounds, stored, failed = _decompress(list(zip(blobs, blocks)))
    nblocks = [len(b) for b in blocks]
    owners = np.repeat(np.arange(len(names)), nblocks)
    nrows = np.array(nrows, dtype=np.int64)
    nvals = np.array(nvals, dtype=np.int64)
    counts = _item_counts(nrows, nvals)

    bad = np.zeros(len(names), dtype=bool)
    bad[owners[failed]] = True
    # each member's sections lie back to back from the start of its first block
    data = np.frombuffer(buf, dtype=np.uint8)
    starts = np.array(bounds[:-1], dtype=np.int64)[np.cumsum(nblocks) - nblocks]
    arrays = []
    for (_, dtype), count in zip(_SECTIONS, counts):
        nbytes = count * dtype.itemsize
        arrays.append(data[segment_ranges(starts, nbytes)].view(dtype))
        starts = starts + nbytes
    _flag_noncanonical(*arrays, nrows, nvals, bad)

    metas = [None if flagged else meta for flagged, meta in zip(bad.tolist(), metas)]
    if bad.any():
        good = ~bad
        arrays = [a[np.repeat(good, count)] for a, count in zip(arrays, counts)]
        nrows, nvals = nrows[good], nvals[good]
    matrices = MatrixGroup(*arrays, np.concatenate(([0], np.cumsum(nrows))),
                           np.concatenate(([0], np.cumsum(nvals))))
    return MemberGroup(names, blobs, metas, matrices, (buf, bounds, stored, owners))


def _flag_noncanonical(rows_present, row_ptr, col_ids, vals, nrows, nvals, bad) -> None:
    """Set bad[i] for each member that fails a check of _check_canonical.

    Member i owns nrows[i] items of rows_present, nrows[i] + 1 of row_ptr and
    nvals[i] of col_ids and vals, in member order. Each check runs once over
    all members, with the pairs of items that straddle two members masked
    out. Row starts are read only from members whose row_ptr passed, so a
    corrupt member's offsets never index another member's entries.
    """
    n = len(nrows)
    ids = np.arange(n)
    row_seg = np.repeat(ids, nrows)
    ptr_seg = np.repeat(ids, nrows + 1)
    entry_seg = np.repeat(ids, nvals)

    within = row_seg[1:] == row_seg[:-1]
    bad[row_seg[1:][within & (rows_present[1:] <= rows_present[:-1])]] = True

    ptr_ends = np.cumsum(nrows + 1)
    bad |= row_ptr[ptr_ends - nrows - 1] != 0
    bad |= row_ptr[ptr_ends - 1] != nvals.astype(np.uint64)
    within = ptr_seg[1:] == ptr_seg[:-1]
    bad[ptr_seg[1:][within & (row_ptr[1:] <= row_ptr[:-1])]] = True

    bad[entry_seg[vals == 0]] = True

    heads = ~bad[ptr_seg]
    heads[ptr_ends - 1] = False  # a member's last offset is its end, not a row
    entry_starts = np.cumsum(nvals) - nvals
    row_start = np.zeros(len(col_ids), dtype=bool)
    row_start[entry_starts[ptr_seg[heads]] + row_ptr[heads].astype(np.int64)] = True
    step_down = (col_ids[1:] <= col_ids[:-1]) & ~row_start[1:]
    bad[entry_seg[1:][step_down]] = True


def read_members(path: str | Path, grouped, alone):
    """Yield (name, meta, result) for each member of a TAR, in member order.

    Members come in groups from iter_member_groups. A member the group
    accepted gets the next item of grouped(group), which is called once per
    group that accepted any member, never for a lone member. Every other
    member is decoded alone, on decode_matrix's path, and gets
    alone(matrix, decompressed), decompressed being the (buf, bounds, stored)
    that _same_blocks takes. A corrupt member yields (name, None, message),
    the message decode_matrix's IntegrityError gives, and the walk goes on.
    A ContainerError propagates after the members before it.
    """
    for group in iter_member_groups(path):
        results = iter(grouped(group) if group.packet_sums else ())
        for name, blob, meta in zip(group.names, group.blobs, group.metas):
            if meta is not None:
                yield name, meta, next(results)
                continue
            try:
                matrix, meta, decompressed = _decode(blob)
            except IntegrityError as exc:
                yield name, None, str(exc)
                continue
            yield name, meta, alone(matrix, decompressed)


def verify_archive(path: str | Path) -> list[str]:
    """Decode, re-encode and cross-check every member of a TAR; returns failures.

    Each member's LZ4 blocks are compressed again from its decoded buffer
    and compared with the stored bytes, and its packet sum with the header.
    Its header and prefixes passed every check, so this holds exactly when
    encoding the matrix again, in its blob's version, gives back the blob;
    recompressing the stored blocks lets blobs of either version verify.

    A corrupt or cut TAR adds one failure, naming the byte offset and the
    last good member, after the failures of the members before it.
    """
    failures: list[str] = []
    try:
        for name, meta, result in read_members(
            path,
            lambda group: zip(group.reencodes(), group.packet_sums),
            lambda matrix, decompressed: (all(_same_blocks(*decompressed)),
                                          packet_totals(matrix)[0]),
        ):
            if meta is None:
                failures.append(f"{name}: {result}")
                continue
            reencodes, total = result
            if not reencodes:
                failures.append(f"{name}: re-encode is not bit-identical")
            elif total != meta.packet_total:
                failures.append(f"{name}: packet_total {meta.packet_total} != matrix sum {total}")
    except ContainerError as exc:
        failures.append(str(exc))
    return failures
