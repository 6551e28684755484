"""LZ4 block compression through liblz4: single blocks and slices of one buffer."""

import ctypes
import ctypes.util
import os
import subprocess
import sys

import numpy as np
import pytest

from flowmat import lz4block
from flowmat.lz4block import Lz4Error, compress, compress_slices, decompress_slices


def _payloads() -> list[bytes]:
    rng = np.random.default_rng(4)
    return [
        b"",
        b"x",
        b"abcd" * 1000,
        rng.integers(0, 256, size=3000, dtype=np.uint8).tobytes(),
        # larger than any before it, so the scratch buffer grows
        np.arange(50_000, dtype="<u8").tobytes(),
        b"\x00" * 7,
    ]


def _buffer_and_bounds() -> tuple[bytearray, list[int]]:
    """One buffer of every payload back to back, with an empty slice at each end."""
    payloads = _payloads()
    bounds = [0, *np.cumsum([len(p) for p in payloads]).tolist()]
    return bytearray(b"".join(payloads)), [0, *bounds, bounds[-1]]


@pytest.mark.parametrize("data", _payloads(), ids=lambda d: f"{len(d)}B")
def test_compress_round_trips(data):
    packed = compress(data)
    assert (packed == b"") == (data == b"")
    dst = bytearray(len(data))
    assert decompress_slices([packed], dst, [0, len(data)]) == []
    assert dst == data


def test_compress_slices_equals_compress_per_slice():
    buf, bounds = _buffer_and_bounds()
    assert compress_slices(buf, bounds) == [
        compress(bytes(buf[a:b])) for a, b in zip(bounds, bounds[1:])
    ]
    assert compress_slices(bytearray(), [0]) == []
    assert compress_slices(bytearray(), [0, 0, 0]) == [b"", b""]


def test_decompress_slices_round_trips_into_the_slices_only():
    buf, bounds = _buffer_and_bounds()
    blocks = compress_slices(buf, bounds)
    shifted = [b + 3 for b in bounds]
    dst = bytearray(b"\xaa" * (len(buf) + 6))
    assert decompress_slices(blocks, dst, shifted) == []
    assert dst == b"\xaa" * 3 + buf + b"\xaa" * 3
    assert decompress_slices([], bytearray(), [0]) == []


def test_decompress_slices_returns_exactly_the_failing_blocks():
    buf, bounds = _buffer_and_bounds()
    blocks = compress_slices(buf, bounds)
    slices = list(zip(bounds, bounds[1:]))
    assert [b - a for a, b in slices] == [0, 0, 1, 4000, 3000, 400_000, 7, 0]
    bad = list(blocks)
    bad[0] = b"\x00"  # data for an empty slice
    bad[3] = bad[3][:-1]  # cut short
    bad[4] = blocks[3]  # a good block of another length
    a, b = slices[5]
    bad[5] = compress(bytes(buf[a : b - 1]))  # a slice one byte longer than its output
    bad[6] = b""  # no data for a non-empty slice
    dst = bytearray(b"\xaa" * len(buf))
    assert decompress_slices(bad, dst, bounds) == [0, 3, 4, 5, 6]
    for k, (a, b) in enumerate(slices):
        if k not in (3, 4, 5, 6):
            assert dst[a:b] == buf[a:b]


@pytest.mark.parametrize("bounds", [[], [-1, 2], [0, 3, 2], [0, 9], [2, 1]])
def test_bad_bounds_raise_value_error(bounds):
    buf = bytearray(b"abcdefgh")
    with pytest.raises(ValueError, match="bounds"):
        compress_slices(buf, bounds)
    with pytest.raises(ValueError, match="bounds"):
        decompress_slices([b""] * max(len(bounds) - 1, 0), buf, bounds)


@pytest.mark.parametrize("blocks", [[], [b""], [b"", b"", b""]])
def test_block_count_must_match_slices(blocks):
    with pytest.raises(ValueError, match="blocks for 2 slices"):
        decompress_slices(blocks, bytearray(4), [0, 2, 4])


def test_wrong_raw_len_fails_the_block():
    data = b"abcd" * 1000
    packed = compress(data)
    for raw_len in (len(data) - 1, len(data) + 1, 1, 0):
        assert decompress_slices([packed], bytearray(raw_len), [0, raw_len]) == [0]


def test_input_size_limit_applies_to_blocks_and_slices(monkeypatch):
    monkeypatch.setattr(lz4block, "_MAX_INPUT_SIZE", 10)
    dst = bytearray(10)
    assert decompress_slices([compress(b"x" * 10)], dst, [0, 10]) == [] and dst == b"x" * 10
    with pytest.raises(Lz4Error, match="too large"):
        compress(b"x" * 11)
    with pytest.raises(Lz4Error, match="too large"):
        compress_slices(bytearray(21), [0, 10, 21])


def test_cli_import_leaves_subprocess_out():
    # ctypes.util imports subprocess; liblz4 is loaded by soname without it
    code = "import sys, flowmat.cli; print('subprocess' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_import_leaves_stats_and_flowgen_out():
    # the stats and gen commands import them when they run
    code = "import sys, flowmat.cli; print(sorted({'flowmat.stats', 'flowmat.flowgen'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_load_falls_back_to_find_library(monkeypatch):
    real_cdll = ctypes.CDLL
    opened = []

    def cdll(name):
        opened.append(name)
        if name == "liblz4.so.1":
            raise OSError("no such soname")
        return real_cdll("liblz4.so.1")

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: f"found-{name}")
    lib = lz4block._load()
    assert opened == ["liblz4.so.1", "found-lz4"]
    assert lib.LZ4_compress_default.restype is ctypes.c_int
