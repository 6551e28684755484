"""Golden archives: a seeded ingest with a fixed clock must produce these exact TARs.

The digests pin every byte the pipeline writes (window split points, matrix
build, blob encoding, TAR layout and naming), so a refactor that claims to
leave the output unchanged can be checked mechanically. A change that alters
the archives on purpose must re-record them and say why. These are the
digests of version 2 blobs, one LZ4 block and one CRC32 per matrix. Both
kinds of input are pinned: a line iterable, parsed in blocks of lines, and
the same lines in a file, parsed in byte chunks.
"""

import hashlib
import time

import pytest

from flowmat import shard
from flowmat.cryptopan import CryptoPan
from flowmat.eve import open_source
from flowmat.flowgen import GenConfig, generate
from flowmat.pipeline import run_ingest

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


@pytest.fixture(scope="module")
def golden_lines():
    return list(generate(GOLDEN_INPUT))


@pytest.fixture(scope="module")
def golden_file(golden_lines, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.ndjson"
    path.write_bytes(b"".join(line + b"\n" for line in golden_lines))
    return path


@pytest.mark.parametrize("source", ["stream", "file"])
@pytest.mark.parametrize("mode", sorted(GOLDEN_TARS))
def test_golden_archives(mode, source, golden_lines, golden_file, tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)
    anon = CryptoPan(KEY) if mode == "anon" else None
    if source == "file":
        assert golden_file.stat().st_size > 10 * shard.CHUNK_BYTES
        lines = open_source(str(golden_file))
        try:
            run_ingest(lines, anon, tmp_path)
        finally:
            lines.close()
    else:
        run_ingest(iter(golden_lines), anon, tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.tar"))
    }
    assert digests == GOLDEN_TARS[mode]
