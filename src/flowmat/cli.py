"""Command-line entry points: ingest | gen | stats | verify | bench."""

from __future__ import annotations

import contextlib
import errno
import json
import os
import signal
import sys
from typing import NoReturn

# flowmat calls no BLAS routine, and an idle OpenBLAS thread spins after import numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from flowmat.archive import DEFAULT_PER_TAR
from flowmat.cryptopan import CryptoPan, KeyError_, load_key
from flowmat.eve import open_source
from flowmat.pipeline import MIN_RELIABLE_RECORDS, run_bench, run_ingest, verify_archive
from flowmat.window import DEFAULT_WINDOW_BITS

WINDOW_BITS = click.IntRange(0, 63)
PER_TAR = click.IntRange(min=1)


def _emit(obj: dict, pretty: bool) -> None:
    click.echo(json.dumps(obj, indent=2 if pretty else None))


class _Terminated(BaseException):
    """SIGTERM, raised where the program is, as SIGINT raises KeyboardInterrupt."""


class _Commands(click.Group):
    """The command group: how every command stops on SIGTERM and fails on an OSError.

    While a command runs, SIGTERM raises _Terminated where the program is, as
    SIGINT raises KeyboardInterrupt, so run_ingest finalizes the open TAR and
    stops its parse workers. It is reported in one line with status 143
    (128 + SIGTERM), as a process killed by it would exit, and the previous
    handler is restored. An OSError is one line, "Error: ...", with status 1;
    a broken pipe passes through, and click ends the program on it with
    status 1 and no message, as a reader that stopped early expects.
    """

    def invoke(self, ctx: click.Context):
        def terminate(signum, frame):
            raise _Terminated

        previous = signal.signal(signal.SIGTERM, terminate)
        try:
            return super().invoke(ctx)
        except _Terminated:
            click.echo("Terminated: stopped on SIGTERM", err=True)
            sys.exit(128 + signal.SIGTERM)
        except OSError as exc:
            if exc.errno == errno.EPIPE:
                raise
            raise click.ClickException(str(exc))
        finally:
            signal.signal(signal.SIGTERM, previous)


def _make_anon(key_path: str | None, no_anon: bool) -> CryptoPan | None:
    """Refuse to run without a key unless --no-anon is explicit, and with both."""
    if no_anon:
        if key_path is not None:
            raise click.UsageError("--key and --no-anon exclude each other")
        return None
    try:
        return CryptoPan(load_key(key_path))
    except KeyError_ as exc:
        raise click.ClickException(str(exc))


@click.group(cls=_Commands)
def main() -> None:
    """Suricata EVE flows -> anonymized hypersparse traffic matrix archives."""


def run() -> NoReturn:
    """The flowmat program: main, then exit without the interpreter's teardown.

    main returns or exits with the status its command group gave the command.
    Finalizing the interpreter, with numpy, click and cryptography loaded,
    then takes tens of milliseconds, and none of it is needed: every file is
    closed and every worker reaped. So standard output and error are flushed
    and the process exits with main's status. If a flush fails, the
    interpreter exits as usual and reports it.
    """
    status = 0
    try:
        main()
    except SystemExit as exc:  # click and the commands exit with an int status
        status = exc.code or 0
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


@main.command()
@click.option("--input", "input_spec", default=None, help='EVE file path or "-" for stdin.')
@click.option("--socket", "socket_path", default=None, help="Unix stream socket path to listen on.")
@click.option("--key", "key_path", default=None, help="32-byte anonymization key file.")
@click.option("--no-anon", is_flag=True, help="Disable anonymization (explicit opt-out).")
@click.option("--out", "out_dir", required=True, help="Output directory for TAR archives.")
@click.option("--window-bits", default=DEFAULT_WINDOW_BITS, show_default=True, type=WINDOW_BITS,
              help="Window size = 2^N packets.")
@click.option("--per-tar", default=DEFAULT_PER_TAR, show_default=True, type=PER_TAR,
              help="Matrices per TAR archive.")
@click.option("--pretty", is_flag=True, help="Pretty-print the summary JSON.")
def ingest(input_spec, socket_path, key_path, no_anon, out_dir, window_bits, per_tar, pretty):
    """Convert an EVE flow stream into archived traffic matrices."""
    if (input_spec is None) == (socket_path is None):
        raise click.UsageError("exactly one of --input or --socket is required")
    anon = _make_anon(key_path, no_anon)
    with contextlib.closing(
        open_source(socket_path or input_spec, socket_mode=socket_path is not None)
    ) as source:
        result = run_ingest(
            source, anon, out_dir, window_packets=1 << window_bits, per_tar=per_tar
        )
    _emit(result.as_dict(), pretty)


@main.command()
@click.option("--flows", required=True, type=int, help="Number of flow records.")
@click.option("--pkts-per-flow", default=None, type=int,
              help="Packets per flow when --geometric-mean is not given.  [default: 100]")
@click.option("--geometric-mean", default=None, type=float,
              help="Use a geometric packet-count distribution with this mean.")
@click.option("--addr-model", default="uniform", show_default=True,
              type=click.Choice(["uniform", "zipf"]))
@click.option("--zipf-exponent", default=1.3, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--split", default=1.0, show_default=True, type=float,
              help="Fraction of each flow's packets going to-server.")
@click.option("--out", "out_path", default="-", show_default=True, help="Output file or '-'.")
def gen(flows, pkts_per_flow, geometric_mean, addr_model, zipf_exponent, seed, split, out_path):
    """Generate synthetic EVE flow records."""
    from flowmat import flowgen

    if pkts_per_flow is None:
        pkts_per_flow = flowgen.DEFAULT_PKTS_PER_FLOW
    cfg = flowgen.GenConfig(
        n_flows=flows,
        pkts_per_flow=pkts_per_flow,
        geometric_mean=geometric_mean,
        addr_model=addr_model,
        zipf_exponent=zipf_exponent,
        seed=seed,
        split=split,
    )
    try:
        cfg.validate()
    except flowgen.ConfigError as exc:
        raise click.ClickException(str(exc))
    out = sys.stdout.buffer if out_path == "-" else open(out_path, "wb")
    try:
        for line in flowgen.generate(cfg):
            out.write(line)
            out.write(b"\n")
    except flowgen.ConfigError as exc:  # a draw past 2^53, refused before its line
        raise click.ClickException(str(exc))
    finally:
        if out_path != "-":
            out.close()
        else:
            out.flush()


@main.command()
@click.argument("tar_path")
@click.option("--pretty", is_flag=True)
def stats(tar_path, pretty):
    """Report per-matrix and aggregate statistics for a TAR archive."""
    from flowmat.stats import archive_stats

    for record in archive_stats(tar_path):
        _emit(record, pretty)


@main.command()
@click.argument("tar_path")
def verify(tar_path):
    """Decode + re-encode every archive member; exit nonzero on any mismatch."""
    failures = verify_archive(tar_path)
    for failure in failures:
        click.echo(f"FAIL {failure}", err=True)
    if failures:
        sys.exit(1)
    click.echo("OK")


@main.command()
@click.option("--input", "input_path", required=True,
              help="EVE file to benchmark against (a file, not stdin).")
@click.option("--key", "key_path", default=None)
@click.option("--no-anon", is_flag=True)
@click.option("--out", "out_dir", required=True, help="Scratch directory for archive output.")
@click.option("--window-bits", default=DEFAULT_WINDOW_BITS, show_default=True, type=WINDOW_BITS)
@click.option("--per-tar", default=DEFAULT_PER_TAR, show_default=True, type=PER_TAR)
@click.option("--pretty", is_flag=True)
def bench(input_path, key_path, no_anon, out_dir, window_bits, per_tar, pretty):
    """Time one ingest of a recorded EVE file, read in chunks, stage by stage."""
    anon = _make_anon(key_path, no_anon)
    report = run_bench(
        input_path, anon, out_dir, window_packets=1 << window_bits, per_tar=per_tar
    )
    if not report["reliable"]:
        click.echo(
            f"warning: fewer than {MIN_RELIABLE_RECORDS} records; rates are unreliable", err=True
        )
    _emit(report, pretty)


if __name__ == "__main__":
    run()
