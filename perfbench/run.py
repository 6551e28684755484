"""flowmat benchmark: drive ``flowmat ingest`` as an operator does and check its output.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload uniform_bulk --seed 1 --seconds 30 --trace 0

Before any timing, this process writes the workload's seeded input file and
its oracle. It then repeats rounds until ``--seconds`` have passed (at least
MIN_REPS rounds). With ``--trace 0`` one round is:

* ``setup_s`` samples: ``python -m flowmat ingest`` on an empty input
  (interpreter start, imports, key schedule), SETUP_PER_ROUND times;
* one ingest: the same command on the generated file. The load is a closed
  loop: the child reads the file as fast as the pipeline's back-pressure
  lets it. Wall time, CPU and peak RSS come from ``os.wait4`` on the child;
* the read side: ``verify_archive`` and ``archive_stats`` over every TAR that
  ingest wrote, then over its first READ_TIMED_TARS TARs, alternating for
  2 x READ_SLICE_S in a fresh process (``reader.py``);
* a host-speed probe (``HostSpeed``) after the setup samples, the ingest and
  the reader each.

With ``--trace 1`` a round is one setup sample, one untraced child ingest,
and one traced in-process ingest plus read pass (``tracing.py``); the run
reports per-layer metrics.

Every ingest's summary is compared with the oracle, and every archive that
is read back must hold every window, pass ``verify_archive`` and carry the
right packet totals. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the ingest and setup metrics are medians over the run of each sample divided
by its host-speed factor, and the read-side rates come from the fastest call
on each timed TAR over the run. With ``--trace 1`` metric values are medians
over the rounds of the run.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import hashlib
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

# A fixed benchmark key, so archives and digests repeat for a seed.
KEY_HEX = "5f3c9a1e77b04d2c8e61f0a9b3d5c7e1" "0a1b2c3d4e5f60718293a4b5c6d7e8f9"
WINDOW_BITS = 17
PER_TAR = 64

MIN_REPS = 3              # rounds per run, at least
SETUP_PER_ROUND = 2
READ_SLICE_S = 1.0         # per round and per read function
READ_TIMED_TARS = 8        # the read side is timed on an ingest's first TARs
CHILD_TIMEOUT_S = 60.0

# The host-speed probe: PROBE_SORTS sorts of a fixed array of PROBE_ITEMS
# integers, and PROBE_SPAWNS starts of the interpreter. The reference times
# are typical of the 2-vCPU x86 VM this was tuned on; timings are scaled to
# a host where one sort and one start take that long.
PROBE_SORTS = 16
PROBE_SPAWNS = 2
PROBE_ITEMS = 200_000
PROBE_SORT_REF_S = 0.0016
PROBE_SPAWN_REF_S = 0.0440

WORKLOADS = ("uniform_bulk", "elephant_windows", "suricata_mixed")


class BenchError(RuntimeError):
    """The benchmark cannot run here; nothing is reported."""


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["FLOWMAT_KEY"] = KEY_HEX
    return env


class Launcher:
    """Runs children through launcher.py, so their peak RSS is their own.

    A child's ru_maxrss also counts the peak RSS of the process it was
    spawned from, and this process grows as it decodes archives.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], work: Path) -> Child:
        out, err = work / "child.stdout", work / "child.stderr"
        request = {"argv": argv, "env": child_env(), "stdout": str(out), "stderr": str(err),
                   "timeout_s": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        started = self._proc.stdout.readline()
        done = self._proc.stdout.readline()
        if not started or not done:
            raise BenchError("launcher exited")
        done = json.loads(done)
        return Child(
            returncode=done["returncode"], stdout=out.read_bytes(), stderr=err.read_bytes(),
            wall_s=done["wall_s"], cpu_s=done["cpu_s"], maxrss_kb=done["maxrss_kb"],
        )

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def ingest_argv(input_path: Path, out_dir: Path) -> list[str]:
    return [
        sys.executable, "-m", "flowmat", "ingest", "--input", str(input_path),
        "--out", str(out_dir), "--window-bits", str(WINDOW_BITS), "--per-tar", str(PER_TAR),
    ]


class HostSpeed:
    """How fast the shared host runs right now, relative to the reference times.

    On a host shared with other tenants, the same work runs up to a third
    slower for minutes at a time: the hypervisor steals CPU time and the
    caches are shared. The probe is fixed work that this benchmark owns and
    flowmat does not touch: numpy sorts in this process and interpreter
    starts through the launcher. A probe runs between every two timed steps,
    and a step's factor is the mean of the probes at its two ends: 1.0 when
    the probe takes its reference time, 1.3 when it takes 30% longer.
    """

    def __init__(self, launcher: Launcher, work: Path):
        import numpy

        self._launcher = launcher
        self._work = work
        self._sort = numpy.sort
        self._items = numpy.random.default_rng(0).integers(0, 1 << 32, PROBE_ITEMS)
        self.factors: list[float] = []
        self.parts: list[tuple[float, float]] = []
        self._last = self.probe()

    def probe(self) -> float:
        t0 = time.perf_counter()
        for _ in range(PROBE_SORTS):
            self._sort(self._items)
        sort_s = (time.perf_counter() - t0) / PROBE_SORTS
        spawn_s = sum(
            self._launcher.run([sys.executable, "-c", "import json"], self._work).wall_s
            for _ in range(PROBE_SPAWNS)
        ) / PROBE_SPAWNS
        self.parts.append((sort_s, spawn_s))
        return (sort_s / PROBE_SORT_REF_S + spawn_s / PROBE_SPAWN_REF_S) / 2

    def factor(self) -> float:
        """The factor for the step since the previous call."""
        before, self._last = self._last, self.probe()
        self.factors.append((before + self._last) / 2)
        return self.factors[-1]


def repeat(budget_s: float, fn) -> list:
    """Call fn(i) at least MIN_REPS times and until budget_s has passed."""
    out = []
    deadline = time.perf_counter() + budget_s
    while len(out) < MIN_REPS or time.perf_counter() < deadline:
        out.append(fn(len(out)))
    return out


class Checker:
    """Counts windows attempted and failed, and keeps the reasons."""

    def __init__(self, oracle, window_packets: int):
        self.oracle = oracle
        self.window_packets = window_packets
        self.expected = oracle.summary(window_packets, PER_TAR)
        self.windows = oracle.windows(window_packets)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def error(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)

    def summary(self, summary: dict | None, what: str) -> set:
        """Check one ingest's counters; returns the seqs it reports as missing."""
        if summary is None:
            self.error(f"{what}: no summary")
            return set(range(self.windows))
        for key, want in self.expected.items():
            if summary.get(key) != want:
                self.error(f"{what}: {key} = {summary.get(key)!r}, oracle says {want}")
        written = summary.get("windows_written")
        written = written if isinstance(written, int) else 0
        return set(range(min(max(written, 0), self.windows), self.windows))

    def archive(self, tars, verify_failures: dict, stats_records: dict, what: str) -> set:
        """Check every member of an ingest's TARs; returns the seqs that fail."""
        bad: set = set()
        seen: dict[int, int] = {}
        for tar in tars:
            for failure in verify_failures[tar]:
                self.error(f"{what}: verify {tar.name}: {failure}")
                name = failure.split(":", 1)[0]
                bad.add(int(name.split(".")[0]) if name.split(".")[0].isdigit() else name)
            for rec in stats_records[tar]:
                if rec.get("aggregate"):
                    continue
                seq = rec.get("seq", rec["member"])
                if "error" in rec:
                    self.error(f"{what}: stats {tar.name} {rec['member']}: {rec['error']}")
                    bad.add(seq)
                elif seq in seen:
                    self.error(f"{what}: window {seq} stored twice")
                    bad.add(seq)
                else:
                    seen[seq] = rec["packet_total"]
        last = self.windows - 1
        tail = self.oracle.packets - last * self.window_packets
        for seq in range(self.windows):
            want = tail if seq == last else self.window_packets
            if seq not in seen:
                self.error(f"{what}: window {seq} missing")
                bad.add(seq)
            elif seen[seq] != want:
                self.error(f"{what}: window {seq} holds {seen[seq]} packets, expected {want}")
                bad.add(seq)
        extra = set(seen) - set(range(self.windows))
        if extra:
            self.error(f"{what}: unexpected windows {sorted(extra)[:5]}")
        if len(tars) != self.expected["tars_finalized"]:
            self.error(f"{what}: {len(tars)} TARs, expected {self.expected['tars_finalized']}")
        return bad

    def count(self, failed_seqs: set) -> None:
        self.attempted += self.windows
        self.failed += len(failed_seqs)


def archive_digest(tars) -> str:
    """sha256 over the decoded matrices in window order.

    Creation times and TAR names carry the wall clock, so they are left out.
    """
    from flowmat.archive import decode_matrix, iter_archive

    members = []
    for tar in tars:
        for _, blob in iter_archive(tar):
            matrix, meta = decode_matrix(blob)
            members.append((meta.seq, meta.packet_total, matrix))
    h = hashlib.sha256()
    for seq, packet_total, m in sorted(members, key=lambda t: t[0]):
        h.update(struct.pack("<QQ", seq, packet_total))
        for arr, dtype in (
            (m.rows_present, "<u4"), (m.row_ptr, "<u8"), (m.col_ids, "<u4"), (m.vals, "<u8"),
        ):
            data = arr.astype(dtype).tobytes()
            h.update(struct.pack("<Q", len(data)))
            h.update(data)
    return h.hexdigest()


def environment() -> dict:
    """Where the code under test came from and what it ran on."""
    probe = subprocess.run(
        [sys.executable, "-c", "import flowmat; print(flowmat.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    child_file = probe.stdout.decode().strip()
    if probe.returncode != 0 or not Path(child_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"child does not import flowmat from {SRC}: {child_file or probe.stderr!r}")
    import cryptography
    import flowmat
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True)
        sha = rev.stdout.decode().strip() or None
    lz4 = ctypes.CDLL(ctypes.util.find_library("lz4") or "liblz4.so.1")
    lz4.LZ4_versionNumber.restype = ctypes.c_int
    return {
        "flowmat_file": flowmat.__file__,
        "child_flowmat_file": child_file,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "lz4_version_number": lz4.LZ4_versionNumber(),
    }


def known_digest(workload: str, seed: int) -> str | None:
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def setup_once(launcher: Launcher, work: Path, checker: Checker) -> float:
    """Wall time of the ingest command on an empty input."""
    empty = work / "empty.ndjson"
    empty.touch()
    out = work / "setup"
    child = launcher.run(ingest_argv(empty, out), work)
    if child.returncode != 0:
        checker.error(f"setup run exited {child.returncode}: {child.stderr[-500:]!r}")
    shutil.rmtree(out, ignore_errors=True)
    return child.wall_s


def ingest_once(launcher: Launcher, work: Path, input_path: Path, i: int, checker: Checker):
    """One child ingest; returns the child, its output dir and the seqs it reports missing."""
    out = work / f"ingest-{i}"
    child = launcher.run(ingest_argv(input_path, out), work)
    summary = None
    if child.returncode != 0:
        checker.error(f"ingest {i} exited {child.returncode}: {child.stderr[-500:]!r}")
    else:
        try:
            summary = json.loads(child.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            checker.error(f"ingest {i}: summary is not JSON: {child.stdout[-200:]!r}")
    return child, out, checker.summary(summary, f"ingest {i}")


def read_once(launcher: Launcher, work: Path, tars: list[Path], checker: Checker, i: int):
    """Fastest verify and stats call on each timed TAR, and the first passes' results."""
    child = launcher.run(
        [sys.executable, str(HERE / "reader.py"), str(READ_SLICE_S), str(READ_TIMED_TARS),
         *map(str, tars)], work
    )
    if child.returncode != 0:
        checker.error(f"reader {i} exited {child.returncode}: {child.stderr[-500:]!r}")
        return None
    out = json.loads(child.stdout)
    by_path = {str(tar): tar for tar in tars}
    return (
        out["verify_s"], out["stats_s"],
        {by_path[k]: v for k, v in out["verify"].items()},
        {by_path[k]: v for k, v in out["stats"].items()},
    )


def check_digest(args, digests: set, checker: Checker) -> None:
    if len(digests) != 1:
        checker.error(f"output digest differs between ingests of one input: {sorted(digests)}")
        return
    want = known_digest(args.workload, args.seed)
    if want is not None and want not in digests:
        checker.error(f"output digest {next(iter(digests))} != recorded {want}")


def run_untraced(args, launcher: Launcher, work: Path, input_path: Path, oracle,
                 checker: Checker, env: dict) -> dict:
    """Rounds of setup, ingest, verify and stats until --seconds have passed.

    Each round checks the archive it just wrote in full. Interleaving spreads
    every metric's samples over the whole run, so a slow spell on a shared
    host hits all metrics alike instead of one phase. Each timed step is
    divided by its HostSpeed factor, and a metric is the median of those
    scaled samples over the run. The medians of the unscaled samples go to
    the env line.
    """
    host = HostSpeed(launcher, work)
    # (seconds, host factor) per sample
    setup, wall, cpu = [], [], []
    # fastest call on the i-th timed TAR of an ingest, over every round
    verify, stats = [], []
    rss, sizes, digests, kept = [], [], set(), []

    def one(i):
        runs = [setup_once(launcher, work, checker) for _ in range(SETUP_PER_ROUND)]
        f = host.factor()
        setup.extend((s, f) for s in runs)
        child, out, missing = ingest_once(launcher, work, input_path, i, checker)
        f = host.factor()
        wall.append((child.wall_s, f))
        cpu.append((child.cpu_s, f))
        rss.append(child.maxrss_kb * 1024 / 1e6)
        tars = sorted(out.glob("*.tar"))
        sizes.append(sum(p.stat().st_size for p in tars))
        read = read_once(launcher, work, tars, checker, i)
        host.factor()
        if read is None:
            checker.count(set(range(checker.windows)))
        else:
            for best, times in ((verify, read[0]), (stats, read[1])):
                best[:] = [min(pair) for pair in zip(best, times)] if best else times
            checker.count(missing | checker.archive(tars, read[2], read[3], f"ingest {i}"))
        if i == 0:
            digests.add(archive_digest(tars))
        if kept:
            shutil.rmtree(kept.pop(), ignore_errors=True)
        kept.append(out)

    repeat(args.seconds, one)
    digests.add(archive_digest(sorted(kept[-1].glob("*.tar"))))
    env["digest"] = sorted(digests)
    env["rounds"] = len(wall)
    check_digest(args, digests, checker)
    if len(set(sizes)) != 1:
        checker.error(f"archive sizes differ between ingests of one input: {sorted(set(sizes))}")

    med = statistics.median
    lines, mb = oracle.lines, sizes[-1] / 1e6
    timed_mb = sum(p.stat().st_size for p in sorted(kept[-1].glob("*.tar"))[:READ_TIMED_TARS]) / 1e6

    def metrics(seconds) -> dict:
        return {
            "ingest_lines_per_s": (lines / seconds(wall), "1/s"),
            "cpu_us_per_line": (seconds(cpu) / lines * 1e6, "us"),
            "setup_s": (seconds(setup), "s"),
            "peak_rss_mb": (med(rss), "MB"),
            "archive_mb": (mb, "MB"),
            "verify_mb_per_s": (timed_mb / sum(verify), "MB/s"),
            "stats_mb_per_s": (timed_mb / sum(stats), "MB/s"),
        }

    env["host_factor"] = {"median": med(host.factors), "min": min(host.factors),
                          "max": max(host.factors),
                          "sort_s": med(a for a, _ in host.parts),
                          "spawn_s": med(b for _, b in host.parts)}
    env["unscaled"] = {k: v for k, (v, _) in metrics(lambda xs: med(t for t, _ in xs)).items()}
    return metrics(lambda xs: med(t / f for t, f in xs))


def run_traced(args, launcher: Launcher, work: Path, input_path: Path, oracle,
               checker: Checker, env: dict) -> dict:
    """Rounds of setup, one untraced child ingest and one traced in-process ingest."""
    import tracing

    setup, untraced, runs, digests = [], [], [], set()

    def one(i):
        setup.append(setup_once(launcher, work, checker))
        child, out, missing = ingest_once(launcher, work, input_path, i, checker)
        untraced.append(child.wall_s)
        checker.count(missing)
        shutil.rmtree(out, ignore_errors=True)

        out = work / f"traced-{i}"
        run = tracing.traced_ingest(input_path, out, 1 << WINDOW_BITS, PER_TAR)
        failed = checker.summary(run.result.as_dict(), f"traced {i}")
        failed |= checker.archive(run.tars, run.verify_failures, run.stats_records, f"traced {i}")
        checker.count(failed)
        if i < 2:
            digests.add(archive_digest(run.tars))
        shutil.rmtree(out, ignore_errors=True)
        runs.append(run)

    repeat(args.seconds, one)
    check_digest(args, digests, checker)
    env["digest"] = sorted(digests)
    env["rounds"] = len(runs)
    missing = sorted({m for r in runs for m in r.missing_hooks})
    if missing:
        print(f"warning: hooks not found, their time counts as unattributed: {missing}",
              file=sys.stderr)

    med = statistics.median
    metrics = {name: med(r.layers[name] for r in runs) for name in runs[0].layers}
    metrics["pipeline.tracing_overhead"] = (
        metrics["pipeline.wall_s"] / (med(untraced) - med(setup)) - 1
    )
    return {name: (value, tracing.unit_of(name)) for name, value in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "flowmat" / "__init__.py").is_file():
        raise BenchError(f"no flowmat source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    os.environ["FLOWMAT_KEY"] = KEY_HEX
    import workloads

    load_before = os.getloadavg()[0]
    env = environment()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        input_path = work / "input.ndjson"
        oracle = workloads.generate(args.workload, args.seed, input_path)
        checker = Checker(oracle, 1 << WINDOW_BITS)
        if args.workload == "suricata_mixed":
            for e in workloads.self_check(input_path, oracle):
                checker.error(f"generator self-check: {e}")
        run = run_traced if args.trace else run_untraced
        metrics = run(args, launcher, work, input_path, oracle, checker, env)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    env["loadavg_1m"] = [load_before, os.getloadavg()[0]]

    correct = not checker.errors and checker.failed == 0
    failed_fraction = checker.failed / checker.attempted
    for e in checker.errors:
        print(f"FAIL {e}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    print(f"{'failed_fraction':34s} {failed_fraction:16.6f} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
