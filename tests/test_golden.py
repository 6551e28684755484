"""Golden archives: a seeded ingest with a fixed clock must produce these exact TARs.

The digests pin every byte the pipeline writes (window split points, matrix
build, blob encoding, TAR layout and naming), so a refactor that claims to
leave the output unchanged can be checked mechanically. A change that alters
the archives on purpose must re-record them and say why. These are the
digests of version 2 blobs, one LZ4 block and one CRC32 per matrix. Both
kinds of input are pinned: a line iterable, parsed in blocks of lines, and
the same lines in a file, parsed in byte chunks. The many-window case
pins thousands of small windows in TARs of five members, so the windows one
segmented build completes are written across many TAR boundaries.
"""

import hashlib
import time

import pytest

from flowmat import shard
from flowmat.cryptopan import CryptoPan
from flowmat.eve import open_source
from flowmat.flowgen import GenConfig, generate
from flowmat.pipeline import run_ingest
from flowmat.window import MAX_WINDOWS_PER_BUILD

KEY = bytes(range(32))
FIXED_CLOCK = 1_724_000_000.75

# zipf sources fold duplicate coordinates; geometric counts with split 0.5
# give both directed entries and windows that split flows at the boundary
GOLDEN_INPUT = GenConfig(n_flows=200_000, geometric_mean=100.0, addr_model="zipf",
                         split=0.5, seed=2409)

GOLDEN_TARS = {
    "anon": {
        "1724000000_0.tar": "60c1bed7f7e16f9d9195fc114913fff27a885784f51fb446a92a7f2b6f9aae2a",
        "1724000000_64.tar": "c0c5ca66ef555f878c0dbd08eda39f032adaebc5f1c280bd43ad3ea983a83b62",
        "1724000000_128.tar": "426cec7fbfa66a522311506ea7dc0a32fdbf4b80894f64c08f7775ac145c74ed",
    },
    "raw": {
        "1724000000_0.tar": "c52f0afc21b66133a515f5d2f32a8f9543475232aa81ac6ba8d7ca4135066369",
        "1724000000_64.tar": "8d57cf5c58775f496c94482320259e93fa3a2a2b08e86420707c55df47b16440",
        "1724000000_128.tar": "02663911337cc43008d1563008b682e8d6888656deb2d57ac511624b9e41f67b",
    },
}

# about one window of 2^12 packets per flow: 3,054 windows in 611 TARs
MANY_WINDOWS_INPUT = GenConfig(n_flows=3_000, geometric_mean=4096.0, split=0.5, seed=2410)
MANY_WINDOWS_BITS = 12
MANY_WINDOWS_PER_TAR = 5
MANY_WINDOWS_TARS = 611
# sha256 over every TAR in name order: its name, a NUL, then its bytes
MANY_WINDOWS_DIGEST = {
    "anon": "353809dd0a0f4b985e71279cf7fce2fd168581e16d58244ee28f33cb45f619fb",
    "raw": "2bddd7958799c940ffbd7fd36c58d862c88608c99572f3d2aaf9e77f31a7ad19",
}


@pytest.fixture(scope="module")
def golden_lines():
    return list(generate(GOLDEN_INPUT))


@pytest.fixture(scope="module")
def golden_file(golden_lines, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.ndjson"
    path.write_bytes(b"".join(line + b"\n" for line in golden_lines))
    return path


def _ingest(source, lines, path, anon, out_dir, **kwargs):
    """Ingest lines as a line iterable (stream) or from the file at path (file)."""
    if source == "stream":
        return run_ingest(iter(lines), anon, out_dir, **kwargs)
    opened = open_source(str(path))
    try:
        return run_ingest(opened, anon, out_dir, **kwargs)
    finally:
        opened.close()


@pytest.mark.parametrize("source", ["stream", "file"])
@pytest.mark.parametrize("mode", sorted(GOLDEN_TARS))
def test_golden_archives(mode, source, golden_lines, golden_file, tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)
    anon = CryptoPan(KEY) if mode == "anon" else None
    assert golden_file.stat().st_size > 10 * shard.CHUNK_BYTES
    _ingest(source, golden_lines, golden_file, anon, tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.tar"))
    }
    assert digests == GOLDEN_TARS[mode]


@pytest.mark.parametrize("source", ["stream", "file"])
@pytest.mark.parametrize("mode", sorted(MANY_WINDOWS_DIGEST))
def test_golden_many_windows(mode, source, tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)
    lines = list(generate(MANY_WINDOWS_INPUT))
    path = tmp_path / "many.ndjson"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    anon = CryptoPan(KEY) if mode == "anon" else None
    out = tmp_path / "out"
    result = _ingest(source, lines, path, anon, out, window_packets=1 << MANY_WINDOWS_BITS,
                     per_tar=MANY_WINDOWS_PER_TAR)
    tars = sorted(out.glob("*.tar"))
    digest = hashlib.sha256()
    for tar in tars:
        digest.update(tar.name.encode() + b"\0" + tar.read_bytes())
    # a 256 KiB file chunk completes more windows than one segmented build takes
    assert result.windows_written > 2 * MAX_WINDOWS_PER_BUILD
    assert len(tars) == MANY_WINDOWS_TARS == result.tars_finalized
    assert digest.hexdigest() == MANY_WINDOWS_DIGEST[mode]
