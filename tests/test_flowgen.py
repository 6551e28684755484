import importlib
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import flowmat
from flowmat.cli import main
from flowmat.eve import FlowRecord, IngestCounters, parse_columns, parse_flow_record
from flowmat.flowgen import DEFAULT_PKTS_PER_FLOW, ConfigError, GenConfig, generate, packet_total


def test_empty_stream():
    assert list(generate(GenConfig(n_flows=0))) == []


def test_default_constant_packets():
    lines = list(generate(GenConfig(n_flows=2, seed=3)))
    assert len(lines) == 2
    for line in lines:
        rec = parse_flow_record(line)
        assert isinstance(rec, FlowRecord)
        assert rec.pkts_toserver == 100
        assert rec.pkts_toclient == 0


def test_deterministic_byte_stream():
    cfg = GenConfig(n_flows=500, seed=77)
    assert list(generate(cfg)) == list(generate(cfg))


def test_seed_changes_stream():
    a = list(generate(GenConfig(n_flows=50, seed=1)))
    b = list(generate(GenConfig(n_flows=50, seed=2)))
    assert a != b


def test_parse_closure_all_models():
    for cfg in (
        GenConfig(n_flows=300, seed=5),
        GenConfig(n_flows=300, seed=5, addr_model="zipf"),
        GenConfig(n_flows=300, seed=5, geometric_mean=20.0, split=0.7),
    ):
        counters = IngestCounters()
        parse_columns(list(generate(cfg)), counters)
        assert counters.records_ok == 300
        assert counters.lines_consumed == 300


def test_packet_total_oracle_constant():
    cfg = GenConfig(n_flows=13108, pkts_per_flow=100)
    assert packet_total(cfg) == 1_310_800


def test_packet_total_oracle_geometric():
    cfg = GenConfig(n_flows=40_000, seed=9, geometric_mean=30.0)
    total = 0
    for line in generate(cfg):
        rec = parse_flow_record(line)
        total += rec.pkts_toserver + rec.pkts_toclient
    assert total == packet_total(cfg)


def test_split_partitions_packets():
    for line in generate(GenConfig(n_flows=100, seed=4, split=0.25)):
        rec = parse_flow_record(line)
        assert rec.pkts_toserver + rec.pkts_toclient == 100
        assert rec.pkts_toserver == 25


@pytest.mark.parametrize(
    "cfg",
    [
        GenConfig(n_flows=-1),
        GenConfig(n_flows=1, pkts_per_flow=0),
        GenConfig(n_flows=1, geometric_mean=0.5),
        GenConfig(n_flows=1, addr_model="bogus"),
        GenConfig(n_flows=1, addr_model="zipf", zipf_exponent=1.0),
        GenConfig(n_flows=1, split=1.5),
        GenConfig(n_flows=1, geometric_mean=float("nan")),
        GenConfig(n_flows=1, geometric_mean=float("inf")),
        GenConfig(n_flows=1, addr_model="zipf", zipf_exponent=float("nan")),
        GenConfig(n_flows=1, pkts_per_flow=(1 << 53) + 1),
        GenConfig(n_flows=2, geometric_mean=1e300),
        # a valid mean whose draws pass 2^53 more than a third of the time
        GenConfig(n_flows=20, geometric_mean=float(1 << 53)),
    ],
)
def test_invalid_config_rejected(cfg):
    with pytest.raises(ConfigError):
        list(generate(cfg))


def test_split_is_exact_up_to_2_53_packets():
    for split, toserver in ((1.0, 1 << 53), (0.5, 1 << 52), (0.0, 0)):
        (line,) = generate(GenConfig(n_flows=1, pkts_per_flow=1 << 53, split=split))
        rec = parse_flow_record(line)
        assert (rec.pkts_toserver, rec.pkts_toclient) == (toserver, (1 << 53) - toserver)


@pytest.mark.parametrize("args", [
    ["--geometric-mean", "nan"], ["--geometric-mean", "inf"],
    ["--addr-model", "zipf", "--zipf-exponent", "nan"],
    ["--pkts-per-flow", "100000000000000000000000"],
    ["--pkts-per-flow", "9007199254740993", "--split", "1"],
    ["--pkts-per-flow", "18446744073709551615", "--split", "1"],
    ["--geometric-mean", "1e300", "--split", "1"],
    # seed 0 draws more than 2^53 packets for the one flow
    ["--geometric-mean", "9007199254740992", "--split", "1", "--seed", "0"],
])
def test_gen_rejects_what_it_cannot_generate_exactly(args):
    result = CliRunner().invoke(main, ["gen", "--flows", "1", *args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a click error, not a traceback
    assert result.output.startswith("Error: ") and len(result.output.splitlines()) == 1
    assert result.stdout_bytes == b""


def test_gen_defaults_to_the_generators_packets_per_flow():
    runner = CliRunner()
    assert f"[default: {DEFAULT_PKTS_PER_FLOW}]" in runner.invoke(main, ["gen", "--help"]).output
    result = runner.invoke(main, ["gen", "--flows", "3", "--seed", "2"])
    assert result.exit_code == 0
    assert result.stdout_bytes == b"".join(line + b"\n" for line in generate(GenConfig(n_flows=3, seed=2)))


def test_package_names_are_imported_on_first_use():
    code = ("import sys, flowmat; print('flowmat.flowgen' in sys.modules); "
            "from flowmat import GenConfig, archive_stats; "
            "print(GenConfig.__module__, archive_stats.__module__)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "flowmat.flowgen", "flowmat.stats"]
    assert all(getattr(flowmat, name) is not None for name in flowmat.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        flowmat.no_such_name


# Every flowmat name that the benchmark harness (perfbench/) imports, by
# module, listed by hand. Removing one of them breaks the benchmark run.
BENCHMARK_IMPORTS = {
    "archive": ["ArchiveWriter", "decode_matrix", "iter_archive"],
    "cryptopan": ["CryptoPan", "load_key"],
    "eve": ["FlowRecord", "Skip", "open_source", "parse_flow_record"],
    "flowgen": ["GenConfig", "generate", "packet_total"],
    "lz4block": [],
    "pipeline": ["run_ingest", "verify_archive"],
    "stats": ["archive_stats"],
    "window": ["TripleBuffer", "Windower"],
}


def test_names_the_benchmark_imports_exist():
    missing = [
        f"flowmat.{module}.{name}"
        for module, names in BENCHMARK_IMPORTS.items()
        for name in names
        if not hasattr(importlib.import_module(f"flowmat.{module}"), name)
    ]
    assert missing == []
