"""Prefix-preserving IPv4 anonymization (the classic Crypto-PAn construction).

The 32-byte key splits into an AES-128 key (first 16 bytes) and a pad seed
(last 16 bytes); the pad is the seed encrypted under the key. Each address
bit is XORed with the top bit of an AES block built from the address prefix
above it padded out with pad bits, so two addresses sharing k prefix bits map
to outputs sharing exactly k prefix bits.

Output bit p depends only on the p-bit prefix, so the first 16 bits of the
one-time pad come from a 2^16-entry table per key, built on first use from
2^16 - 1 blocks, and each address then needs 16 AES blocks, not 32.
"""

from __future__ import annotations

import os

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from flowmat.eve import FlowColumns

KEY_BYTES = 32
KEY_ENV_VAR = "FLOWMAT_KEY"

# OTP bits 0..TABLE_BITS-1 come from a per-key table indexed by address prefix
TABLE_BITS = 16
# AES blocks per encryptor call: 64 KB buffers, so building the table and
# mapping a batch add nothing measurable to peak RSS
CHUNK_BLOCKS = 4096


class KeyError_(ValueError):
    """Bad anonymization key material."""


def load_key(path: str | None = None) -> bytes:
    """Load 32 raw key bytes from a file, or 64 hex chars from the environment."""
    if path is not None:
        with open(path, "rb") as fh:
            key = fh.read(KEY_BYTES + 1)  # enough to tell a longer file, even /dev/zero
        if len(key) != KEY_BYTES:
            got = "more" if len(key) > KEY_BYTES else len(key)
            raise KeyError_(f"key file {path!r} must hold exactly {KEY_BYTES} bytes, got {got}")
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

        # per-position block words: top p bits of the address, rest from the pad
        pad_first4 = int.from_bytes(self.pad[:4], "big")
        masks = [(0xFFFFFFFF >> (32 - p)) << (32 - p) if p else 0 for p in range(32)]
        self._addr_masks = np.array(masks[TABLE_BITS:], dtype=np.uint32)
        self._pad_fill = np.array([pad_first4 & ~m & 0xFFFFFFFF for m in masks], dtype=np.uint32)
        self._pad_tail = np.frombuffer(self.pad[4:], dtype=">u4")
        self._table: np.ndarray | None = None

    def _encrypt(self, data) -> bytes:
        return self._cipher.encryptor().update(data)

    def _otp_bits(self, first4: np.ndarray) -> np.ndarray:
        """Top bit of AES(first4 || pad[4:16]) for each 32-bit first word, as 0/1."""
        first4 = first4.ravel()
        bits = np.empty(len(first4), dtype=np.uint8)
        blocks = np.empty((min(len(first4), CHUNK_BLOCKS), 4), dtype=">u4")
        blocks[:, 1:] = self._pad_tail
        encryptor = self._cipher.encryptor()
        for lo in range(0, len(first4), CHUNK_BLOCKS):
            chunk = blocks[: len(first4) - lo]
            chunk[:, 0] = first4[lo : lo + CHUNK_BLOCKS]
            out = encryptor.update(memoryview(chunk).cast("B"))
            bits[lo : lo + len(chunk)] = np.frombuffer(out, dtype=np.uint8)[::16] >> 7
        return bits

    def _prefix_table(self) -> np.ndarray:
        """OTP bits 0..15 of every address, indexed by its top 16 bits.

        OTP bit p depends only on the p-bit prefix, so level p encrypts the
        2^p prefixes once and doubles the table: 2^16 - 1 blocks in all,
        built on first use.
        """
        if self._table is None:
            table = np.zeros(1, dtype=np.uint32)
            for p in range(TABLE_BITS):
                prefixes = np.arange(1 << p, dtype=np.uint32) << np.uint32(31 - p) << np.uint32(1)
                first4 = prefixes | self._pad_fill[p]
                table = np.repeat((table << 1) | self._otp_bits(first4), 2)
            self._table = table
        return self._table

    def anonymize_many(self, addrs: np.ndarray) -> np.ndarray:
        """Map a batch of uint32 addresses: a table lookup and 16 AES blocks each."""
        a = addrs.astype(np.uint32)
        if len(a) == 0:
            return a
        high = self._prefix_table()[a >> TABLE_BITS] << TABLE_BITS
        first4 = (a[:, None] & self._addr_masks) | self._pad_fill[TABLE_BITS:]
        bits = self._otp_bits(first4).reshape(len(a), 32 - TABLE_BITS)
        low = np.packbits(bits, axis=1).view(">u2")[:, 0]
        return a ^ (high | low)


def anonymize_flows(state: CryptoPan | None, batch: FlowColumns) -> FlowColumns:
    """Map both address columns of a batch; passthrough when state is None."""
    if state is None or len(batch) == 0:
        return batch
    uniq, inverse = np.unique(np.concatenate((batch.src, batch.dst)), return_inverse=True)
    mapped = state.anonymize_many(uniq)[inverse]
    n = len(batch)
    return FlowColumns(mapped[:n], mapped[n:], batch.toserver, batch.toclient)
