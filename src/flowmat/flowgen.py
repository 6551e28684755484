"""Deterministic synthetic EVE flow-record generator for tests and benchmarks.

The uniform address model emulates darknet-like traffic: nearly every flow
has a distinct (source, destination) pair, the worst case for matrix density.
The zipf model skews source popularity for a realistic-traffic contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

DEFAULT_PKTS_PER_FLOW = 100

_OCTET = [str(i) for i in range(256)]
_BATCH = 1 << 14


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GenConfig:
    n_flows: int
    pkts_per_flow: int = DEFAULT_PKTS_PER_FLOW   # constant model unless geometric_mean set
    geometric_mean: float | None = None
    addr_model: str = "uniform"                  # "uniform" | "zipf"
    zipf_exponent: float = 1.3
    seed: int = 0
    split: float = 1.0                           # fraction of packets to-server

    def validate(self) -> None:
        if self.n_flows < 0:
            raise ConfigError("n_flows must be >= 0")
        # the to-server share is rounded in float64, which holds every integer up to 2^53
        if self.geometric_mean is None and not 1 <= self.pkts_per_flow <= 1 << 53:
            raise ConfigError("pkts_per_flow must be in [1, 2^53]")
        for name in ("geometric_mean", "zipf_exponent", "split"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name.replace('_', ' ')} must be finite")
        if self.geometric_mean is not None and not 1.0 <= self.geometric_mean <= 1 << 53:
            raise ConfigError("geometric mean must be in [1, 2^53]")
        if self.addr_model not in ("uniform", "zipf"):
            raise ConfigError(f"unknown addr_model {self.addr_model!r}")
        if self.addr_model == "zipf" and self.zipf_exponent <= 1.0:
            raise ConfigError("zipf exponent must be > 1")
        if not 0.0 <= self.split <= 1.0:
            raise ConfigError("split must be in [0, 1]")


def _format_ips(addrs: np.ndarray) -> list[str]:
    octets = addrs.astype(">u4").view(np.uint8).reshape(-1, 4).tolist()
    oc = _OCTET
    return [f"{oc[a]}.{oc[b]}.{oc[c]}.{oc[d]}" for a, b, c, d in octets]


def _source_addrs(cfg: GenConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    if cfg.addr_model == "uniform":
        return rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    # zipf rank -> address via a multiplicative hash so popular ranks spread
    # over the space instead of clustering at low addresses
    ranks = rng.zipf(cfg.zipf_exponent, size=n).astype(np.uint64)
    return ((ranks * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)).astype(np.uint32)


def _packet_counts(cfg: GenConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    if cfg.geometric_mean is None:
        return np.full(n, cfg.pkts_per_flow, dtype=np.uint64)
    counts = rng.geometric(1.0 / cfg.geometric_mean, size=n)
    # a draw past 2^63 saturates, and the to-server split is exact only up to 2^53
    if n and counts.max() > 1 << 53:
        raise ConfigError("geometric mean too large: a flow drew more than 2^53 packets")
    return counts.astype(np.uint64)


def _batches(cfg: GenConfig) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The source addresses, destination addresses and packet counts of each batch of flows.

    The one order of draws from the seeded generator, so generate and
    packet_total read the same flows.
    """
    rng = np.random.default_rng(cfg.seed)
    for start in range(0, cfg.n_flows, _BATCH):
        n = min(_BATCH, cfg.n_flows - start)
        src = _source_addrs(cfg, rng, n)
        dst = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
        yield src, dst, _packet_counts(cfg, rng, n)


def generate(cfg: GenConfig) -> Iterator[bytes]:
    """Yield n_flows EVE flow-record lines; byte-identical for a fixed config."""
    cfg.validate()
    for src, dst, pkts in _batches(cfg):
        srcs, dsts = _format_ips(src), _format_ips(dst)
        toserver = np.rint(pkts * cfg.split).astype(np.uint64)
        toclient = (pkts - toserver).tolist()
        toserver = toserver.tolist()
        for i in range(len(srcs)):
            yield (
                b'{"event_type":"flow","src_ip":"%s","dest_ip":"%s",'
                b'"flow":{"pkts_toserver":%d,"pkts_toclient":%d}}'
                % (srcs[i].encode(), dsts[i].encode(), toserver[i], toclient[i])
            )


def packet_total(cfg: GenConfig) -> int:
    """Exact packet count the generator will emit (the windowing oracle)."""
    cfg.validate()
    if cfg.geometric_mean is None:
        return cfg.n_flows * cfg.pkts_per_flow
    return sum(int(pkts.sum()) for _, _, pkts in _batches(cfg))
