"""Times verify_archive and archive_stats on TARs, in a fresh process.

    python reader.py SLICE_S TIMED TAR...

One pass of verify_archive and one of archive_stats over every TAR give the
results that the benchmark checks. Then passes of each over the first TIMED
TARs alternate until 2 x SLICE_S seconds have passed and each has made at
least MIN_PASSES passes. Every call on one TAR is timed on its own. The one
JSON object printed gives, for each function, the fastest call on each of
the first TIMED TARs, with the results of the first pass keyed by TAR path.
A call takes milliseconds, so on a shared host the fastest of many sees the
host at its own speed and not a co-tenant's slow spell.
"""

import json
import sys
import time

from flowmat.pipeline import verify_archive
from flowmat.stats import archive_stats

MIN_PASSES = 2


def timed(fn, tars: list[str], best: list[float]) -> dict:
    results = {}
    for i, tar in enumerate(tars):
        t0 = time.perf_counter()
        results[tar] = fn(tar)
        if i < len(best):
            best[i] = min(best[i], time.perf_counter() - t0)
    return results


def main() -> None:
    slice_s, n_timed, tars = float(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    timed_tars = tars[:n_timed]
    verify_best = [float("inf")] * len(timed_tars)
    stats_best = [float("inf")] * len(timed_tars)
    verified = timed(verify_archive, tars, verify_best)
    stats = timed(archive_stats, tars, stats_best)
    deadline = time.perf_counter() + 2 * slice_s
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        timed(verify_archive, timed_tars, verify_best)
        timed(archive_stats, timed_tars, stats_best)
        passes += 1
    json.dump({
        "verify_s": verify_best,
        "stats_s": stats_best,
        "verify": verified,
        "stats": stats,
    }, sys.stdout)


if __name__ == "__main__":
    main()
