"""Suricata EVE flow records -> anonymized, windowed hypersparse traffic matrices."""

from flowmat.eve import FlowColumns, FlowRecord, IngestCounters, Skip, parse_flow_record, open_source
from flowmat.cryptopan import CryptoPan, load_key
from flowmat.hypermat import HyperMatrix, MatrixMeta, total_sum
from flowmat.window import Windower
from flowmat.archive import ArchiveWriter, encode_matrix, decode_matrix, IntegrityError
from flowmat.stats import MatrixStats, matrix_stats, archive_stats
from flowmat.flowgen import GenConfig, generate

__all__ = [
    "FlowColumns",
    "FlowRecord",
    "IngestCounters",
    "Skip",
    "parse_flow_record",
    "open_source",
    "CryptoPan",
    "load_key",
    "HyperMatrix",
    "MatrixMeta",
    "total_sum",
    "Windower",
    "ArchiveWriter",
    "encode_matrix",
    "decode_matrix",
    "IntegrityError",
    "MatrixStats",
    "matrix_stats",
    "archive_stats",
    "GenConfig",
    "generate",
]
