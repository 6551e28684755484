"""Anonymization-invariant summary statistics over matrices and archives.

Every field here depends only on matrix structure under relabeling of
addresses, so anonymized and passthrough runs of the same input agree
exactly. Address-valued analytics (subnet rollups etc.) are deliberately
absent.

archive_stats is one loop over archive.read_members, the walk verify
shares, with two kernels. The small members a group accepted, of at most
GROUP_MEMBER_ENTRIES entries each, are summarized together by group_stats
with segmented reduceat, bincount and np.unique over (member, value) keys,
as Trigg et al. compute per-window network quantities over many windows at
once (HPEC 2022). Larger members, and members the group's checks flag, are
decoded alone and summarized by matrix_stats; that per-member path gives the
same records and is the reference the grouped one is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from flowmat.archive import ContainerError, MemberGroup, read_members
from flowmat.hypermat import HyperMatrix, MatrixMeta, total_sum


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


def group_stats(group: MemberGroup) -> list[MatrixStats]:
    """matrix_stats of each member the group accepted (one or more), computed together.

    Out-degrees are the row_ptr steps inside each member; in-degrees count
    the (member, column) keys. Maxima are segmented reduceats and the degree
    histograms one np.unique over (member, degree) keys.
    """
    n = len(group.packet_sums)
    nrows, nvals = group.nrows, group.nvals
    ids = np.arange(n)
    ptr_seg = np.repeat(ids, nrows + 1)
    within = ptr_seg[1:] == ptr_seg[:-1]
    out_degrees = np.diff(group.row_ptr.astype(np.int64))[within]
    row_seg = ptr_seg[1:][within]
    entry_seg = np.repeat(ids, nvals)
    cols, in_degrees = np.unique((entry_seg << 32) | group.col_ids, return_counts=True)
    unique_destinations = np.bincount(cols >> 32, minlength=n)

    # an empty member has no rows and no columns: its maxima stay 0
    nonempty = nvals > 0
    max_fanout = np.zeros(n, dtype=np.int64)
    max_fanin = np.zeros(n, dtype=np.int64)
    row_starts = np.cumsum(nrows) - nrows
    col_starts = np.cumsum(unique_destinations) - unique_destinations
    max_fanout[nonempty] = np.maximum.reduceat(out_degrees, row_starts[nonempty])
    max_fanin[nonempty] = np.maximum.reduceat(in_degrees, col_starts[nonempty])

    width = int(out_degrees.max(initial=0)) + 1
    keys, counts = np.unique(row_seg * width + out_degrees, return_counts=True)
    cuts = np.searchsorted(keys // width, np.arange(n + 1)).tolist()
    degrees, counts = (keys % width).tolist(), counts.tolist()
    histograms = [dict(zip(degrees[a:b], counts[a:b])) for a, b in zip(cuts, cuts[1:])]
    return [
        MatrixStats(packet_total, nv, nr, nd, fanout, fanin, histogram)
        for packet_total, nv, nr, nd, fanout, fanin, histogram in zip(
            group.packet_sums, nvals.tolist(), nrows.tolist(), unique_destinations.tolist(),
            max_fanout.tolist(), max_fanin.tolist(), histograms,
        )
    ]


def _record(name: str, meta: MatrixMeta, s: MatrixStats) -> dict:
    rec = {"member": name, "seq": meta.seq, **s.as_dict()}
    if s.packet_total != meta.packet_total:
        rec["error"] = f"packet_total mismatch: stats {s.packet_total}, meta {meta.packet_total}"
    return rec


def archive_stats(path) -> list[dict]:
    """Per-member stats records plus one aggregate record for a TAR.

    Members come from read_members: those a group accepted are summarized
    together by group_stats, every other one alone by matrix_stats.

    A corrupt member yields an error record; remaining members still report.
    A corrupt or cut TAR yields one error record whose member is the byte
    offset where reading stopped, after the records of the members before it.
    """
    records: list[dict] = []
    good: list[MatrixStats] = []
    try:
        for name, meta, s in read_members(path, group_stats, lambda m, _: matrix_stats(m)):
            if meta is None:  # s is what is wrong with the member
                records.append({"member": name, "error": s})
                continue
            records.append(_record(name, meta, s))
            good.append(s)
    except ContainerError as exc:
        records.append({"member": f"byte {exc.offset}", "error": str(exc)})
    records.append({"aggregate": True, "members": len(good), **aggregate_stats(good).as_dict()})
    return records
