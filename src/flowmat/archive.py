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
"""

from __future__ import annotations

import io
import struct
import tarfile
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


class IntegrityError(ValueError):
    """Blob fails structural validation; message names the bad part."""


def encode_matrix(m: HyperMatrix, meta: MatrixMeta) -> bytes:
    out = io.BytesIO()
    out.write(
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
    )
    for name, dtype in _SECTIONS:
        raw = getattr(m, name).astype(dtype, copy=False).tobytes()
        packed = lz4block.compress(raw)
        out.write(_SECTION_PREFIX.pack(len(raw), len(packed)))
        out.write(packed)
    return out.getvalue()


def decode_matrix(blob: bytes) -> tuple[HyperMatrix, MatrixMeta]:
    if len(blob) < _HEADER.size:
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

    # exact item counts from the header, checked before any buffer is sized
    counts = {
        "rows_present": nrows_present,
        "row_ptr": nrows_present + 1,
        "col_ids": nvals,
        "vals": nvals,
    }
    offset = _HEADER.size
    arrays = {}
    for name, dtype in _SECTIONS:
        if len(blob) < offset + _SECTION_PREFIX.size:
            raise IntegrityError(f"truncated before section {name}")
        raw_len, comp_len = _SECTION_PREFIX.unpack_from(blob, offset)
        offset += _SECTION_PREFIX.size
        if raw_len != counts[name] * dtype.itemsize:
            raise IntegrityError(f"section {name} raw length {raw_len} disagrees with header")
        if len(blob) < offset + comp_len:
            raise IntegrityError(f"truncated inside section {name}")
        try:
            raw = lz4block.decompress(blob[offset : offset + comp_len], raw_len)
        except lz4block.Lz4Error as exc:
            raise IntegrityError(f"section {name} fails decompression: {exc}") from exc
        offset += comp_len
        arrays[name] = np.frombuffer(raw, dtype=dtype)
    if offset != len(blob):
        raise IntegrityError("trailing bytes after last section")
    _check_canonical(arrays, nvals)

    m = HyperMatrix(
        rows_present=arrays["rows_present"].astype(np.uint32),
        row_ptr=arrays["row_ptr"].astype(np.uint64),
        col_ids=arrays["col_ids"].astype(np.uint32),
        vals=arrays["vals"].astype(np.uint64),
    )
    meta = MatrixMeta(seq=seq, packet_total=packet_total, created_unix_s=created)
    return m, meta


def _check_canonical(arrays: dict, nvals: int) -> None:
    """Reject blobs whose arrays are not in canonical form.

    LZ4 block data carries no checksum, so corruption is caught through the
    matrix invariants instead: sorted unique rows, sorted columns per row,
    consistent offsets, no zero values.
    """
    rows_present = arrays["rows_present"]
    row_ptr = arrays["row_ptr"].astype(np.int64)
    col_ids = arrays["col_ids"]
    vals = arrays["vals"]
    if len(rows_present) > 1 and (np.diff(rows_present.astype(np.int64)) <= 0).any():
        raise IntegrityError("section rows_present not strictly increasing")
    if row_ptr[0] != 0 or row_ptr[-1] != nvals:
        raise IntegrityError("section row_ptr endpoints inconsistent")
    if (np.diff(row_ptr) < 1).any():
        raise IntegrityError("section row_ptr not strictly increasing")
    if nvals > 1:
        deltas = np.diff(col_ids.astype(np.int64))
        row_starts = np.zeros(nvals - 1, dtype=bool)
        row_starts[row_ptr[1:-1] - 1] = True
        if (deltas[~row_starts] <= 0).any():
            raise IntegrityError("section col_ids not strictly increasing within a row")
    if (vals == 0).any():
        raise IntegrityError("section vals contains zero entries")


def member_name(seq: int) -> str:
    return f"{seq:020d}.grb"


class ArchiveWriter:
    """Writes blobs into rotating ustar TARs of per_tar members each."""

    def __init__(self, out_dir: str | Path, per_tar: int = DEFAULT_PER_TAR):
        if per_tar < 1:
            raise ValueError("per_tar must be >= 1")
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.per_tar = per_tar
        self._tar: tarfile.TarFile | None = None
        self._tar_path: Path | None = None
        self._members_in_tar = 0
        self._last_seq: int | None = None

    def append(self, blob: bytes, meta: MatrixMeta) -> Path | None:
        """Add one blob; returns the TAR path when this append finalizes one."""
        if self._last_seq is not None and meta.seq <= self._last_seq:
            raise ValueError(f"seq {meta.seq} not ascending past {self._last_seq}")
        self._last_seq = meta.seq

        if self._tar is None:
            self._tar_path = self.out_dir / f"{meta.created_unix_s}_{meta.seq}.tar"
            self._tar = tarfile.open(self._tar_path, "w", format=tarfile.USTAR_FORMAT)
            self._members_in_tar = 0

        info = tarfile.TarInfo(name=member_name(meta.seq))
        info.size = len(blob)
        info.mtime = meta.created_unix_s
        self._tar.addfile(info, io.BytesIO(blob))
        self._members_in_tar += 1

        if self._members_in_tar == self.per_tar:
            return self._finalize()
        return None

    def _finalize(self) -> Path:
        assert self._tar is not None and self._tar_path is not None
        self._tar.close()
        path = self._tar_path
        self._tar = None
        self._tar_path = None
        self._members_in_tar = 0
        return path

    def close(self) -> Path | None:
        """Finalize a trailing partial TAR, if any."""
        if self._tar is not None and self._members_in_tar > 0:
            return self._finalize()
        if self._tar is not None:
            self._tar.close()
            self._tar = None
        return None


def iter_archive(path: str | Path):
    """Yield (member_name, blob_bytes) from a TAR in member order."""
    with tarfile.open(path, "r") as tar:
        for info in tar:
            if not info.isfile():
                continue
            stream = tar.extractfile(info)
            if stream is None:
                continue
            yield info.name, stream.read()
