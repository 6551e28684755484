"""Suricata EVE flow records -> anonymized, windowed hypersparse traffic matrices.

The names below are imported from their modules on first use (PEP 562), so
importing one module, as the command line does, loads only what it needs.
"""

import importlib

_EXPORTS = {
    "FlowColumns": "eve",
    "FlowRecord": "eve",
    "IngestCounters": "eve",
    "Skip": "eve",
    "parse_flow_record": "eve",
    "open_source": "eve",
    "CryptoPan": "cryptopan",
    "load_key": "cryptopan",
    "HyperMatrix": "hypermat",
    "MatrixMeta": "hypermat",
    "total_sum": "hypermat",
    "Windower": "window",
    "ArchiveWriter": "archive",
    "decode_matrix": "archive",
    "IntegrityError": "archive",
    "MatrixStats": "stats",
    "matrix_stats": "stats",
    "archive_stats": "stats",
    "GenConfig": "flowgen",
    "generate": "flowgen",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
