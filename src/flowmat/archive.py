"""Bit-exact matrix blob serialization and rotating TAR archives.

Blob layout (all little-endian):
  header: magic "HSTM", version u32=1, nrows u64, ncols u64, nvals u64,
          nrows_present u64, seq u64, packet_total u64, created_unix_s u64
  then four sections in order: rows_present u32[], row_ptr u64[],
          col_ids u32[], vals u64[]
  each section: raw_len_bytes u64, compressed_len_bytes u64, LZ4 block data

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

One function, _layout, checks a blob's layout for both readers below, before
any decompression: magic, version, dimensions, each section's raw length
against the header's item count, truncation and trailing bytes. Only then
are sections decompressed and checked for canonical form.

verify and stats read a TAR in groups of members (iter_member_groups). A
member of at most GROUP_MEMBER_ENTRIES entries whose layout passes joins a
group; a group's sections are decompressed into one buffer per section and
checked for canonical form once, with a segment id per member. Larger
members, and members the grouped checks flag, are decoded alone by
decode_matrix, which stays the reference for every check and message.
"""

from __future__ import annotations

import operator
import struct
from pathlib import Path

import numpy as np

from flowmat import lz4block
from flowmat.hypermat import DIMENSION, HyperMatrix, MatrixMeta

MAGIC = b"HSTM"
VERSION = 1
DEFAULT_PER_TAR = 64

_HEADER = struct.Struct("<4sIQQQQQQQ")
_SECTION_PREFIX = struct.Struct("<QQ")

_SECTIONS = (
    ("rows_present", np.dtype("<u4")),
    ("row_ptr", np.dtype("<u8")),
    ("col_ids", np.dtype("<u4")),
    ("vals", np.dtype("<u8")),
)
# ints, read once: dtype.itemsize in _layout's per-member loop slows the grouped reader
_ITEM_SIZES = tuple(dtype.itemsize for _, dtype in _SECTIONS)


class IntegrityError(ValueError):
    """Blob fails structural validation; message names the bad part."""


class ContainerError(IntegrityError):
    """The TAR around the blobs is corrupt or cut short at byte offset."""

    def __init__(self, offset: int, after: str | None, problem: str):
        where = f"after member {after}" if after else "before any member"
        super().__init__(f"byte {offset}, {where}: {problem}")
        self.offset = offset


def encode_matrix(m: HyperMatrix, meta: MatrixMeta) -> bytes:
    parts = [
        _HEADER.pack(
            MAGIC,
            VERSION,
            DIMENSION,
            DIMENSION,
            m.nvals,
            len(m.rows_present),
            meta.seq,
            meta.packet_total,
            meta.created_unix_s,
        )
    ]
    for name, dtype in _SECTIONS:
        raw = getattr(m, name).astype(dtype, copy=False).tobytes()
        packed = lz4block.compress(raw)
        parts.append(_SECTION_PREFIX.pack(len(raw), len(packed)))
        parts.append(packed)
    return b"".join(parts)


def decode_matrix(blob: bytes) -> tuple[HyperMatrix, MatrixMeta]:
    meta, _, nvals, spans = _layout(blob)
    arrays = {}
    for (name, dtype), (start, stop, raw_len) in zip(_SECTIONS, spans):
        try:
            raw = lz4block.decompress(blob[start:stop], raw_len)
        except lz4block.Lz4Error as exc:
            raise IntegrityError(f"section {name} fails decompression: {exc}") from exc
        arrays[name] = np.frombuffer(raw, dtype=dtype)
    _check_canonical(arrays, nvals)
    return HyperMatrix(**arrays), meta


def _item_counts(nrows_present, nvals) -> tuple:
    """Items in each of _SECTIONS, from the header's counts (ints or arrays)."""
    return nrows_present, nrows_present + 1, nvals, nvals


def _layout(blob: bytes):
    """(meta, nrows_present, nvals, spans) of a blob whose layout is sound.

    Makes every check that needs no decompression: magic, version,
    dimensions, each section's raw length against the header's item count,
    truncation and trailing bytes. A span is a section's (start, stop,
    raw length), start and stop bounding its LZ4 block in the blob.
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
    if version != VERSION:
        raise IntegrityError(f"unsupported version {version}")
    if nrows != DIMENSION or ncols != DIMENSION:
        raise IntegrityError(f"unexpected dimensions {nrows}x{ncols}")

    # exact raw lengths from the header, checked before any buffer is sized
    offset = _HEADER.size
    spans = []
    counts = _item_counts(nrows_present, nvals)
    for (name, _), item_size, count in zip(_SECTIONS, _ITEM_SIZES, counts):
        if size < offset + _SECTION_PREFIX.size:
            raise IntegrityError(f"truncated before section {name}")
        raw_len, comp_len = _SECTION_PREFIX.unpack_from(blob, offset)
        offset += _SECTION_PREFIX.size
        if raw_len != count * item_size:
            raise IntegrityError(f"section {name} raw length {raw_len} disagrees with header")
        if size < offset + comp_len:
            raise IntegrityError(f"truncated inside section {name}")
        spans.append((offset, offset + comp_len, raw_len))
        offset += comp_len
    if offset != size:
        raise IntegrityError("trailing bytes after last section")
    return MatrixMeta(seq, packet_total, created), nrows_present, nvals, spans


def _check_canonical(arrays: dict, nvals: int) -> None:
    """Reject blobs whose arrays are not in canonical form.

    LZ4 block data carries no checksum, so corruption is caught through the
    matrix invariants instead: sorted unique rows, sorted columns per row,
    consistent offsets, no zero values.
    """
    rows_present = arrays["rows_present"]
    row_ptr = arrays["row_ptr"]
    col_ids = arrays["col_ids"]
    vals = arrays["vals"]
    if len(rows_present) > 1 and (np.diff(rows_present.astype(np.int64)) <= 0).any():
        raise IntegrityError("section rows_present not strictly increasing")
    if row_ptr[0] != 0 or row_ptr[-1] != nvals:
        raise IntegrityError("section row_ptr endpoints inconsistent")
    # compared unsigned, so every offset then lies in [0, nvals]
    if (row_ptr[1:] <= row_ptr[:-1]).any():
        raise IntegrityError("section row_ptr not strictly increasing")
    if nvals > 1:
        deltas = np.diff(col_ids.astype(np.int64))
        row_starts = np.zeros(nvals - 1, dtype=bool)
        row_starts[row_ptr[1:-1].astype(np.int64) - 1] = True
        if (deltas[~row_starts] <= 0).any():
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


def _ustar_header(name: bytes, size: int, mtime: int) -> bytes:
    if len(name) > 100:
        raise ValueError(f"member name {name!r} longer than 100 bytes")
    if not 0 <= size < _OCTAL_LIMIT or not 0 <= mtime < _OCTAL_LIMIT:
        raise ValueError(f"member size {size} or mtime {mtime} overflows a ustar field")
    size_field = b"%011o\x00" % size
    mtime_field = b"%011o\x00" % mtime
    checksum = _TEMPLATE_SUM + sum(name) + sum(size_field) + sum(mtime_field)
    return b"".join((
        name.ljust(100, b"\x00"), _MODE_IDS, size_field, mtime_field,
        b"%06o\x00 " % checksum, _AFTER_CHECKSUM,
    ))


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

    def append(self, blob: bytes, meta: MatrixMeta) -> Path | None:
        """Add one blob; returns the TAR path when this append finalizes one.

        Raises ValueError, with nothing written, when seq does not ascend or
        the blob's size or the mtime does not fit its ustar field.
        """
        if self._last_seq is not None and meta.seq <= self._last_seq:
            raise ValueError(f"seq {meta.seq} not ascending past {self._last_seq}")
        header = _ustar_header(member_name(meta.seq).encode("ascii"), len(blob),
                               meta.created_unix_s)
        self._last_seq = meta.seq

        if self._fh is None:
            self._fh = open(self.out_dir / f"{meta.created_unix_s}_{meta.seq}.tar", "wb")
        self._fh.write(header)
        self._fh.write(blob)
        self._fh.write(_ZERO_BLOCK[: -len(blob) % _BLOCK])
        self._members_in_tar += 1

        if self._members_in_tar == self.per_tar:
            return self._finalize()
        return None

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
        rest = fh.read()
        end = offset + 2 * _BLOCK + len(rest)
        if end % _RECORD or rest.strip(b"\x00"):
            raise ContainerError(end, last, "record padding is cut short or not zero")


# Members of at most this many entries are decoded in groups, larger ones alone
GROUP_MEMBER_ENTRIES = 256
# a group is decoded once its members' entries, plus one per member, reach this
GROUP_ENTRIES = 1 << 14


class MemberGroup:
    """Consecutive members of one TAR, decoded together.

    Member i is names[i] and blobs[i]. metas[i] is its MatrixMeta when the
    grouped checks accepted it, and None when it must be decoded alone with
    decode_matrix, which then names what is wrong with it. The accepted
    members' sections are concatenated in member order: rows_present,
    row_ptr, col_ids and vals hold nrows[k], nrows[k] + 1, nvals[k] and
    nvals[k] items for the k-th accepted member, and packet_sums[k] is the
    sum of its vals modulo 2^64, as total_sum computes it.
    """

    def __init__(self, names, blobs, metas, arrays=(None,) * 4, nrows=None, nvals=None,
                 packet_sums=(), sections=None):
        self.names = names
        self.blobs = blobs
        self.metas = metas
        self.rows_present, self.row_ptr, self.col_ids, self.vals = arrays
        self.nrows = nrows
        self.nvals = nvals
        self.packet_sums = packet_sums
        self._sections = sections

    def reencodes(self) -> list[bool]:
        """For the k-th accepted member: does encode_matrix give back its blob?

        Its header and section prefixes passed every check, so it does exactly
        when each section, compressed again from the decoded buffer, equals
        the stored bytes.
        """
        if not self.packet_sums:
            return []
        per_section = [
            map(operator.eq, lz4block.compress_slices(buf, bounds), blocks)
            for buf, bounds, blocks in self._sections
        ]
        return [all(same) for same, meta in zip(zip(*per_section), self.metas) if meta is not None]


def iter_member_groups(path: str | Path):
    """Yield a TAR's members in order, as MemberGroups.

    A member of at most GROUP_MEMBER_ENTRIES entries whose header and section
    prefixes pass decode_matrix's checks joins the pending group, and the
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
    no more rows than entries.
    """
    try:
        plan = _layout(blob)
    except IntegrityError:
        return None
    _, nrows_present, nvals, _ = plan
    return plan if nrows_present <= nvals <= GROUP_MEMBER_ENTRIES else None


def _decode_group(members: list) -> MemberGroup:
    """Decompress planned members into one buffer per section and check them."""
    names, blobs, plans = (list(column) for column in zip(*members))
    metas, nrows, nvals, spans = zip(*plans)
    nrows = np.array(nrows, dtype=np.int64)
    nvals = np.array(nvals, dtype=np.int64)
    counts = _item_counts(nrows, nvals)

    bad = np.zeros(len(names), dtype=bool)
    sections, arrays = [], []
    for (_, dtype), count, section_spans in zip(_SECTIONS, counts, zip(*spans)):
        bounds = [0, *np.cumsum(count * dtype.itemsize).tolist()]
        buf = bytearray(bounds[-1])
        blocks = [blob[start:stop] for blob, (start, stop, _) in zip(blobs, section_spans)]
        bad[lz4block.decompress_slices(blocks, buf, bounds)] = True
        sections.append((buf, bounds, blocks))
        arrays.append(np.frombuffer(buf, dtype=dtype))
    _flag_noncanonical(*arrays, nrows, nvals, bad)

    metas = [None if flagged else meta for flagged, meta in zip(bad.tolist(), metas)]
    if bad.any():
        good = ~bad
        arrays = [a[np.repeat(good, count)] for a, count in zip(arrays, counts)]
        nrows, nvals = nrows[good], nvals[good]
    vals = arrays[3]
    prefix = np.zeros(len(vals) + 1, dtype=np.uint64)
    np.cumsum(vals, out=prefix[1:])  # wraps modulo 2^64, so differences do too
    ends = np.cumsum(nvals)
    packet_sums = (prefix[ends] - prefix[ends - nvals]).tolist()
    return MemberGroup(names, blobs, metas, arrays, nrows, nvals, packet_sums, sections)


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
