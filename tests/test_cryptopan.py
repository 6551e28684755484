import os
import subprocess
import sys

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from flowmat.cryptopan import CryptoPan, KeyError_, anonymize_flows, load_key
from flowmat.eve import FlowColumns, FlowRecord
from tests.conftest import columns_from_records

KEY = bytes(range(32))

# Output of an independent third-party Crypto-PAn implementation for
# KEY = bytes 0x00..0x1f, address 10.1.2.3 (derived offline, frozen here).
PINNED_INPUT = 0x0A010203
PINNED_OUTPUT = 0xF6221D10
# Same derivation for the all-zero key.
PINNED_OUTPUT_ZERO_KEY = 0xF22102BE
PINNED = np.array([PINNED_INPUT], dtype=np.uint32)


def naive_anonymize(key: bytes, addr: int) -> int:
    """Bit-at-a-time construction, written independently of the package."""
    enc = Cipher(algorithms.AES(key[:16]), modes.ECB()).encryptor()
    pad = enc.update(key[16:32])
    pad32 = int.from_bytes(pad[:4], "big")
    otp = 0
    for pos in range(32):
        if pos == 0:
            first32 = pad32
        else:
            prefix = addr >> (32 - pos)
            first32 = (prefix << (32 - pos)) | (pad32 & ((1 << (32 - pos)) - 1))
        block = first32.to_bytes(4, "big") + pad[4:]
        otp = (otp << 1) | (enc.update(block)[0] >> 7)
    return addr ^ otp


def lcp32(a: int, b: int) -> int:
    x = a ^ b
    return 32 if x == 0 else 32 - x.bit_length()


def test_pad_derivation_all_zero_key():
    # E_{0^16}(0^16) computed with a separate AES instance
    expected = Cipher(algorithms.AES(bytes(16)), modes.ECB()).encryptor().update(bytes(16))
    assert CryptoPan(bytes(32)).pad == expected


def test_bad_key_length():
    with pytest.raises(KeyError_):
        CryptoPan(bytes(31))


def test_state_deterministic():
    a, b = CryptoPan(KEY), CryptoPan(KEY)
    assert a.pad == b.pad
    assert a.anonymize_many(PINNED).tolist() == b.anonymize_many(PINNED).tolist()


def test_pinned_reference_vector():
    assert CryptoPan(KEY).anonymize_many(PINNED).tolist() == [PINNED_OUTPUT]
    assert CryptoPan(bytes(32)).anonymize_many(PINNED).tolist() == [PINNED_OUTPUT_ZERO_KEY]


def test_matches_naive_oracle():
    cp = CryptoPan(KEY)
    rnd = np.random.default_rng(42)
    addrs = rnd.integers(0, 1 << 32, size=64, dtype=np.uint64).tolist()
    addrs += [0, 1, 0xFFFFFFFF, PINNED_INPUT]
    got = cp.anonymize_many(np.array(addrs, dtype=np.uint32)).tolist()
    assert got == [naive_anonymize(KEY, addr) for addr in addrs]


def test_vectorized_matches_scalar(rng):
    cp = CryptoPan(KEY)
    addrs = rng.integers(0, 1 << 32, size=500, dtype=np.uint64).astype(np.uint32)
    vec = cp.anonymize_many(addrs)
    fresh = CryptoPan(KEY)
    # each address alone, as a batch of one
    assert all(v == fresh.anonymize_many(addrs[i : i + 1])[0] for i, v in enumerate(vec))


def test_prefix_preservation_random_pairs(rng):
    cp = CryptoPan(KEY)
    a = rng.integers(0, 1 << 32, size=2000, dtype=np.uint64).astype(np.uint32)
    b = rng.integers(0, 1 << 32, size=2000, dtype=np.uint64).astype(np.uint32)
    aa, ab = cp.anonymize_many(a), cp.anonymize_many(b)
    for x, y, ax, ay in zip(a.tolist(), b.tolist(), aa.tolist(), ab.tolist()):
        assert lcp32(ax, ay) == lcp32(x, y)


def test_prefix_preservation_single_bit_flips(rng):
    cp = CryptoPan(KEY)
    base = rng.integers(0, 1 << 32, size=32, dtype=np.uint64).astype(np.uint32)
    for bit in range(32):
        flipped = base ^ np.uint32(1 << bit)
        ab, af = cp.anonymize_many(base), cp.anonymize_many(flipped)
        for x, y, ax, ay in zip(base.tolist(), flipped.tolist(), ab.tolist(), af.tolist()):
            assert lcp32(x, y) == 31 - bit
            assert lcp32(ax, ay) == 31 - bit


def test_injectivity_sample(rng):
    cp = CryptoPan(KEY)
    addrs = np.unique(rng.integers(0, 1 << 32, size=100_000, dtype=np.uint64).astype(np.uint32))
    out = cp.anonymize_many(addrs)
    assert len(np.unique(out)) == len(addrs)


def test_key_sensitivity(rng):
    key2 = bytearray(KEY)
    key2[5] ^= 0x01
    a, b = CryptoPan(KEY), CryptoPan(bytes(key2))
    addrs = rng.integers(0, 1 << 32, size=1000, dtype=np.uint64).astype(np.uint32)
    assert (a.anonymize_many(addrs) != b.anonymize_many(addrs)).sum() >= 1


def records(batch: FlowColumns) -> list[FlowRecord]:
    return [
        FlowRecord(*rec)
        for rec in zip(batch.src.tolist(), batch.dst.tolist(),
                       batch.toserver.tolist(), batch.toclient.tolist())
    ]


def test_anonymize_flows_counts_untouched():
    cp = CryptoPan(KEY)
    batch = columns_from_records([FlowRecord(PINNED_INPUT, 0x0A010204, 7, 3)])
    out = records(anonymize_flows(cp, batch))
    assert (out[0].pkts_toserver, out[0].pkts_toclient) == (7, 3)
    assert out[0].src_ip == PINNED_OUTPUT
    assert records(anonymize_flows(cp, batch)) == out  # deterministic


def test_anonymize_flows_passthrough():
    recs = [FlowRecord(1, 2, 3, 4)]
    assert records(anonymize_flows(None, columns_from_records(recs))) == recs


def test_anonymize_flows_equal_addresses_map_equal():
    cp = CryptoPan(KEY)
    recs = [FlowRecord(5, 6, 1, 0), FlowRecord(5, 7, 2, 0), FlowRecord(8, 5, 0, 3)]
    out = records(anonymize_flows(cp, columns_from_records(recs)))
    assert out[0].src_ip == out[1].src_ip == out[2].dest_ip


@pytest.mark.parametrize("key", [KEY, bytes(32)], ids=["counting_key", "zero_key"])
def test_prefix_table_boundaries_match_naive_oracle(key):
    # the first and last addresses under and past a 16-bit table prefix
    addrs = [0, 0x0000FFFF, 0x00010000, 0xFFFF0000, 0xFFFFFFFF]
    cp = CryptoPan(key)
    assert cp._table is None  # built on first use, not at construction
    out = cp.anonymize_many(np.array(addrs, dtype=np.uint32))
    assert out.tolist() == [naive_anonymize(key, a) for a in addrs]


def test_load_key_file(tmp_path):
    path = tmp_path / "key"
    path.write_bytes(KEY)
    assert load_key(str(path)) == KEY
    path.write_bytes(KEY[:-1])
    with pytest.raises(KeyError_, match="got 31$"):
        load_key(str(path))
    path.write_bytes(KEY + b"\n")
    with pytest.raises(KeyError_, match="got more$"):
        load_key(str(path))


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_load_key_reads_no_more_than_a_key():
    # under a 1 GiB address-space limit, reading /dev/zero whole dies with MemoryError
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from flowmat.cryptopan import KeyError_, load_key\n"
            "try:\n    load_key('/dev/zero')\nexcept KeyError_ as exc:\n    print(exc)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "key file '/dev/zero' must hold exactly 32 bytes, got more\n"


def test_load_key_env(monkeypatch):
    monkeypatch.setenv("FLOWMAT_KEY", KEY.hex())
    assert load_key() == KEY
    monkeypatch.setenv("FLOWMAT_KEY", "zz" * 32)
    with pytest.raises(KeyError_):
        load_key()
    monkeypatch.delenv("FLOWMAT_KEY")
    with pytest.raises(KeyError_):
        load_key()
