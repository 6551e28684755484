"""Command-line entry points: ingest | gen | stats | verify | bench."""

from __future__ import annotations

import contextlib
import errno
import json
import signal
import sys

import click

from flowmat import flowgen
from flowmat.archive import DEFAULT_PER_TAR
from flowmat.cryptopan import CryptoPan, KeyError_, load_key
from flowmat.eve import open_source
from flowmat.pipeline import MIN_RELIABLE_RECORDS, run_bench, run_ingest, verify_archive
from flowmat.stats import archive_stats
from flowmat.window import DEFAULT_WINDOW_BITS

WINDOW_BITS = click.IntRange(0, 63)
PER_TAR = click.IntRange(min=1)


def _emit(obj: dict, pretty: bool) -> None:
    click.echo(json.dumps(obj, indent=2 if pretty else None))


@contextlib.contextmanager
def _one_line_errors():
    """Report an OSError as one line, "Error: ...", with exit status 1.

    A broken pipe passes through: click ends the program on it with exit
    status 1 and no message, as a reader that stopped early expects.
    """
    try:
        yield
    except OSError as exc:
        if exc.errno == errno.EPIPE:
            raise
        raise click.ClickException(str(exc))


class _Terminated(BaseException):
    """SIGTERM, raised where the program is, as SIGINT raises KeyboardInterrupt."""


@contextlib.contextmanager
def _stop_on_sigterm():
    """Stop on SIGTERM the way SIGINT stops: by an exception that run_ingest sees.

    run_ingest then finalizes the open TAR and stops its parse workers. The
    program reports the signal in one line and exits with status 143
    (128 + SIGTERM), as a process killed by it would.
    """
    def terminate(signum, frame):
        raise _Terminated

    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        yield
    except _Terminated:
        click.echo("Terminated: stopped on SIGTERM", err=True)
        sys.exit(128 + signal.SIGTERM)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _make_anon(key_path: str | None, no_anon: bool) -> CryptoPan | None:
    """Refuse to run without a key unless --no-anon is explicit."""
    if no_anon:
        return None
    try:
        return CryptoPan(load_key(key_path))
    except (KeyError_, OSError) as exc:
        raise click.ClickException(str(exc))


@click.group()
def main() -> None:
    """Suricata EVE flows -> anonymized hypersparse traffic matrix archives."""


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
    with _stop_on_sigterm(), _one_line_errors(), contextlib.closing(
        open_source(socket_path or input_spec, socket_mode=socket_path is not None)
    ) as source:
        result = run_ingest(
            source, anon, out_dir, window_packets=1 << window_bits, per_tar=per_tar
        )
    _emit(result.as_dict(), pretty)


@main.command()
@click.option("--flows", required=True, type=int, help="Number of flow records.")
@click.option("--pkts-per-flow", default=flowgen.DEFAULT_PKTS_PER_FLOW, show_default=True, type=int)
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
    with _one_line_errors():
        out = sys.stdout.buffer if out_path == "-" else open(out_path, "wb")
        try:
            for line in flowgen.generate(cfg):
                out.write(line)
                out.write(b"\n")
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
    with _one_line_errors():
        records = archive_stats(tar_path)
    for record in records:
        _emit(record, pretty)


@main.command()
@click.argument("tar_path")
def verify(tar_path):
    """Decode + re-encode every archive member; exit nonzero on any mismatch."""
    with _one_line_errors():
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
    """Time one streamed ingest of a recorded EVE file, stage by stage."""
    anon = _make_anon(key_path, no_anon)
    with _one_line_errors():
        report = run_bench(
            input_path, anon, out_dir,
            window_packets=1 << window_bits, per_tar=per_tar,
        )
    if not report["reliable"]:
        click.echo(
            f"warning: fewer than {MIN_RELIABLE_RECORDS} records; rates are unreliable", err=True
        )
    _emit(report, pretty)


if __name__ == "__main__":
    main()
