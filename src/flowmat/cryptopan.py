"""Prefix-preserving IPv4 anonymization (the classic Crypto-PAn construction).

The 32-byte key splits into an AES-128 key (first 16 bytes) and a pad seed
(last 16 bytes); the pad is the seed encrypted under the key. Each address
bit is XORed with the top bit of an AES block built from the address prefix
above it padded out with pad bits, so two addresses sharing k prefix bits map
to outputs sharing exactly k prefix bits.
"""

from __future__ import annotations

import os

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from flowmat.eve import FlowRecord

KEY_BYTES = 32
KEY_ENV_VAR = "FLOWMAT_KEY"

_BIT_WEIGHTS = (np.uint32(1) << np.arange(31, -1, -1, dtype=np.uint32))


class KeyError_(ValueError):
    """Bad anonymization key material."""


def load_key(path: str | None = None) -> bytes:
    """Load 32 raw key bytes from a file, or 64 hex chars from the environment."""
    if path is not None:
        with open(path, "rb") as fh:
            key = fh.read()
        if len(key) != KEY_BYTES:
            raise KeyError_(f"key file {path!r} must hold exactly {KEY_BYTES} bytes, got {len(key)}")
        return key
    hexkey = os.environ.get(KEY_ENV_VAR)
    if hexkey is None:
        raise KeyError_(f"no key: pass --key or set {KEY_ENV_VAR} (64 hex chars)")
    try:
        key = bytes.fromhex(hexkey.strip())
    except ValueError as exc:
        raise KeyError_(f"{KEY_ENV_VAR} is not valid hex") from exc
    if len(key) != KEY_BYTES:
        raise KeyError_(f"{KEY_ENV_VAR} must decode to {KEY_BYTES} bytes, got {len(key)}")
    return key


class CryptoPan:
    """Keyed, deterministic, prefix-preserving 32-bit address permutation."""

    def __init__(self, key: bytes):
        if len(key) != KEY_BYTES:
            raise KeyError_(f"key must be {KEY_BYTES} bytes, got {len(key)}")
        self._cipher = Cipher(algorithms.AES(key[:16]), modes.ECB())
        self.pad = self._encrypt(key[16:32])

        # per-position masks: top p bits of the address, rest from the pad
        pad_first4 = int.from_bytes(self.pad[:4], "big")
        masks = [(0xFFFFFFFF >> (32 - p)) << (32 - p) if p else 0 for p in range(32)]
        self._addr_masks = np.array(masks, dtype=np.uint64)
        self._pad_fill = np.array(
            [pad_first4 & ~m & 0xFFFFFFFF for m in masks], dtype=np.uint64
        )
        self._pad_tail = np.frombuffer(self.pad[4:], dtype=np.uint8)

    def _encrypt(self, data: bytes) -> bytes:
        return self._cipher.encryptor().update(data)

    def anonymize(self, addr: int) -> int:
        """Map one address."""
        return int(self.anonymize_many(np.array([addr], dtype=np.uint32))[0])

    def anonymize_many(self, addrs: np.ndarray) -> np.ndarray:
        """Map a batch of uint32 addresses in one AES pass (32 blocks each)."""
        n = len(addrs)
        if n == 0:
            return addrs.astype(np.uint32)
        a = addrs.astype(np.uint64)[:, None]
        first4 = ((a & self._addr_masks) | self._pad_fill).astype(">u4")
        blocks = np.empty((n, 32, 16), dtype=np.uint8)
        blocks[:, :, :4] = first4.view(np.uint8).reshape(n, 32, 4)
        blocks[:, :, 4:] = self._pad_tail
        out = self._encrypt(blocks.tobytes())
        msb = np.frombuffer(out, dtype=np.uint8)[::16] >> 7
        bits = msb.reshape(n, 32).astype(np.uint32)
        otp = (bits * _BIT_WEIGHTS).sum(axis=1, dtype=np.uint64).astype(np.uint32)
        return addrs.astype(np.uint32) ^ otp


def anonymize_flows(state: CryptoPan | None, records: list[FlowRecord]) -> list[FlowRecord]:
    """Map both addresses of every record; passthrough when state is None."""
    if state is None or not records:
        return records
    n = len(records)
    addrs = np.empty(2 * n, dtype=np.uint32)
    for i, rec in enumerate(records):
        addrs[2 * i] = rec.src_ip
        addrs[2 * i + 1] = rec.dest_ip
    uniq, inverse = np.unique(addrs, return_inverse=True)
    mapped = state.anonymize_many(uniq)[inverse].tolist()
    return [
        FlowRecord(mapped[2 * i], mapped[2 * i + 1], rec.pkts_toserver, rec.pkts_toclient)
        for i, rec in enumerate(records)
    ]
