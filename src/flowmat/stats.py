"""Anonymization-invariant summary statistics over matrices and archives.

Every field here depends only on matrix structure under relabeling of
addresses, so anonymized and passthrough runs of the same input agree
exactly. Address-valued analytics (subnet rollups etc.) are deliberately
absent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from flowmat.archive import ContainerError, IntegrityError, decode_matrix, iter_archive
from flowmat.hypermat import HyperMatrix, total_sum


@dataclass
class MatrixStats:
    packet_total: int = 0
    nvals: int = 0
    unique_sources: int = 0
    unique_destinations: int = 0
    max_fanout: int = 0
    max_fanin: int = 0
    degree_histogram: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "packet_total": self.packet_total,
            "nvals": self.nvals,
            "unique_sources": self.unique_sources,
            "unique_destinations": self.unique_destinations,
            "max_fanout": self.max_fanout,
            "max_fanin": self.max_fanin,
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
        }


def matrix_stats(m: HyperMatrix) -> MatrixStats:
    if m.nvals == 0:
        return MatrixStats()
    out_degrees = np.diff(m.row_ptr).astype(np.int64)
    in_degrees = np.unique(m.col_ids, return_counts=True)[1]
    degrees, counts = np.unique(out_degrees, return_counts=True)
    return MatrixStats(
        packet_total=total_sum(m),
        nvals=m.nvals,
        unique_sources=len(m.rows_present),
        unique_destinations=len(in_degrees),
        max_fanout=int(out_degrees.max()),
        max_fanin=int(in_degrees.max()),
        degree_histogram=dict(zip(degrees.tolist(), counts.tolist())),
    )


def aggregate_stats(per_matrix: list[MatrixStats]) -> MatrixStats:
    """Sum/max across matrices; unique counts are summed per-window figures
    (windows use disjoint sequence numbers, not a global address universe)."""
    agg = MatrixStats()
    histogram: Counter[int] = Counter()
    for s in per_matrix:
        agg.packet_total += s.packet_total
        agg.nvals += s.nvals
        agg.unique_sources += s.unique_sources
        agg.unique_destinations += s.unique_destinations
        agg.max_fanout = max(agg.max_fanout, s.max_fanout)
        agg.max_fanin = max(agg.max_fanin, s.max_fanin)
        histogram.update(s.degree_histogram)
    agg.degree_histogram = dict(histogram)
    return agg


def archive_stats(path) -> list[dict]:
    """Per-member stats records plus one aggregate record for a TAR.

    A corrupt member yields an error record; remaining members still report.
    A corrupt or cut TAR yields one error record whose member is the byte
    offset where reading stopped, after the records of the members before it.
    """
    records: list[dict] = []
    good: list[MatrixStats] = []
    try:
        for name, blob in iter_archive(path):
            try:
                m, meta = decode_matrix(blob)
            except IntegrityError as exc:
                records.append({"member": name, "error": str(exc)})
                continue
            s = matrix_stats(m)
            rec = {"member": name, "seq": meta.seq, **s.as_dict()}
            if s.packet_total != meta.packet_total:
                rec["error"] = (
                    f"packet_total mismatch: stats {s.packet_total}, meta {meta.packet_total}"
                )
            records.append(rec)
            good.append(s)
    except ContainerError as exc:
        records.append({"member": f"byte {exc.offset}", "error": str(exc)})
    records.append({"aggregate": True, "members": len(good), **aggregate_stats(good).as_dict()})
    return records
