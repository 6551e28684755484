"""Golden archives: a seeded ingest with a fixed clock must produce these exact TARs.

The digests pin every byte the pipeline writes (window split points, matrix
build, blob encoding, TAR layout and naming), so a refactor that claims to
leave the output unchanged can be checked mechanically. A change that alters
the archives on purpose must re-record them and say why.
"""

import hashlib
import time

import pytest

from flowmat.cryptopan import CryptoPan
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
        "1724000000_0.tar": "41d0416e096f99daa86e9a64197e32816cb59bd4870778b5b5d53b16190aa8ed",
        "1724000000_64.tar": "c40b78f1096be755ff61add325c37e50bb22db4435b64197ee33ffc80e16fb99",
        "1724000000_128.tar": "69e68275052d2de31695a6054fca80c74b62758dec9f71b3e52a5731fee3e00b",
    },
    "raw": {
        "1724000000_0.tar": "942d1640914f17749d099ae4a41104c95c35324486590782c8d5e8c7ae0e963f",
        "1724000000_64.tar": "f0fad94a2aa08ab778f13e8f9df27ebc7fdbe4a572828086cce22091161bb87f",
        "1724000000_128.tar": "2e64e45f2c6a9f294977546c5a01c193705f2fc421aaef7bd8595b0d39793c6c",
    },
}


@pytest.fixture(scope="module")
def golden_lines():
    return list(generate(GOLDEN_INPUT))


@pytest.mark.parametrize("mode", sorted(GOLDEN_TARS))
def test_golden_archives(mode, golden_lines, tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: FIXED_CLOCK)
    anon = CryptoPan(KEY) if mode == "anon" else None
    run_ingest(iter(golden_lines), anon, tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.tar"))
    }
    assert digests == GOLDEN_TARS[mode]
