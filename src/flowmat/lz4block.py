"""Minimal LZ4 block compression via the system liblz4."""

from __future__ import annotations

import ctypes
import ctypes.util
import threading

# lz4.h's LZ4_MAX_INPUT_SIZE; LZ4_COMPRESSBOUND(n) holds below it
_MAX_INPUT_SIZE = 0x7E000000


class Lz4Error(RuntimeError):
    pass


def _load() -> ctypes.CDLL:
    name = ctypes.util.find_library("lz4") or "liblz4.so.1"
    try:
        lib = ctypes.CDLL(name)
    except OSError as exc:
        raise Lz4Error(f"cannot load liblz4 ({name}): {exc}") from exc
    lib.LZ4_compress_default.restype = ctypes.c_int
    lib.LZ4_compress_default.argtypes = [
        ctypes.c_char_p, ctypes.c_char_p, ctypes.c_int, ctypes.c_int,
    ]
    lib.LZ4_decompress_safe.restype = ctypes.c_int
    lib.LZ4_decompress_safe.argtypes = [
        ctypes.c_char_p, ctypes.c_char_p, ctypes.c_int, ctypes.c_int,
    ]
    return lib


_lib = _load()


class _Scratch(threading.local):
    """Per-thread compression destination, grown to the largest bound seen.

    ctypes releases the interpreter lock around the LZ4 call, so threads
    must not share one buffer.
    """

    def __init__(self) -> None:
        self.dst = ctypes.create_string_buffer(0)


_scratch = _Scratch()


def compress(data: bytes) -> bytes:
    """LZ4 block-compress; empty input maps to empty output."""
    n = len(data)
    return _compress(data, n) if n else b""


def compress_slices(buf: bytearray, bounds: list[int]) -> list[bytes]:
    """[compress(bytes(buf[a:b])) for each pair a, b of adjacent bounds], without copies."""
    _check_bounds(buf, bounds)
    base = ctypes.c_char.from_buffer(buf) if buf else None
    return [
        _compress(ctypes.byref(base, a), b - a) if a < b else b""
        for a, b in zip(bounds, bounds[1:])
    ]


def _compress(src, n: int) -> bytes:
    """LZ4 block of the n > 0 bytes at src, through the thread's scratch buffer."""
    if n > _MAX_INPUT_SIZE:
        raise Lz4Error(f"input too large for LZ4 block: {n} bytes")
    bound = n + n // 255 + 16  # LZ4_COMPRESSBOUND
    dst = _scratch.dst
    if len(dst) < bound:
        dst = _scratch.dst = ctypes.create_string_buffer(bound)
    written = _lib.LZ4_compress_default(src, dst, n, len(dst))
    if written <= 0:
        raise Lz4Error("LZ4_compress_default failed")
    return ctypes.string_at(dst, written)


def decompress(data: bytes, raw_len: int) -> bytearray:
    """Inverse of compress; raw_len must be the exact original size."""
    if raw_len == 0:
        if data:
            raise Lz4Error("expected empty compressed payload for raw_len=0")
        return bytearray()
    dst = bytearray(raw_len)
    produced = _lib.LZ4_decompress_safe(
        data, ctypes.byref(ctypes.c_char.from_buffer(dst)), len(data), raw_len
    )
    if produced != raw_len:
        raise Lz4Error(f"LZ4 decompression produced {produced}, expected {raw_len}")
    return dst


def decompress_slices(blocks: list[bytes], dst: bytearray, bounds: list[int]) -> list[int]:
    """Decompress blocks[k] into dst[bounds[k]:bounds[k + 1]], for every k.

    Each slice's length must be its block's exact original size, as for
    decompress. Returns the k whose block fails; the bytes of their slices
    are undefined, and no other byte of dst is written.
    """
    _check_bounds(dst, bounds)
    if len(blocks) != len(bounds) - 1:
        raise ValueError(f"{len(blocks)} blocks for {len(bounds) - 1} slices")
    base = ctypes.c_char.from_buffer(dst) if dst else None
    failed = []
    for k, (data, a, b) in enumerate(zip(blocks, bounds, bounds[1:])):
        if a < b:
            ok = _lib.LZ4_decompress_safe(data, ctypes.byref(base, a), len(data), b - a) == b - a
        else:
            ok = not data
        if not ok:
            failed.append(k)
    return failed


def _check_bounds(buf: bytearray, bounds: list[int]) -> None:
    """Slice bounds must ascend from 0 or more to len(buf) or less."""
    if not bounds or bounds[0] < 0 or bounds[-1] > len(buf) or any(
        a > b for a, b in zip(bounds, bounds[1:])
    ):
        raise ValueError(f"slice bounds do not ascend within a {len(buf)}-byte buffer")
