"""Seeded benchmark inputs and the oracle each run is checked against.

Every workload writes one newline-delimited EVE file and returns an Oracle:
the counter values, packet total and window count that a correct
``flowmat ingest`` must report for that file. ``uniform_bulk`` and
``elephant_windows`` come from ``flowmat.flowgen``; ``suricata_mixed`` is a
generator owned by this benchmark that wraps flowgen's addresses and packet
counts in Suricata-shaped events.
"""

from __future__ import annotations

import ipaddress
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Lines per input file. Each size makes one child ingest take roughly 2-3 s
# on a 2-core x86 box, so a run repeats the ingest several times.
LINES = {
    "uniform_bulk": 100_000,
    "elephant_windows": 12_000,
    "suricata_mixed": 150_000,
}

# suricata_mixed line kinds and their shares
_FLOW4, _FLOW6, _OTHER, _TRUNCATED = range(4)
_KIND_SHARES = (0.50, 0.10, 0.39, 0.01)
SELF_CHECK_LINES = 4_000


@dataclass
class Oracle:
    """What a correct ingest of the generated file reports."""

    lines: int
    records_ok: int
    skipped_non_flow: int = 0
    skipped_ipv6: int = 0
    skipped_malformed: int = 0
    packets: int = 0
    # (kind, expectation) for the first SELF_CHECK_LINES lines: None for a
    # skipped line, else (src, dst, pkts_toserver, pkts_toclient)
    sample: list = field(default_factory=list)

    def windows(self, window_packets: int) -> int:
        return -(-self.packets // window_packets)

    def summary(self, window_packets: int, per_tar: int) -> dict:
        """Expected values of the keys in the ingest summary JSON."""
        windows = self.windows(window_packets)
        return {
            "records_ok": self.records_ok,
            "records_skipped_non_flow": self.skipped_non_flow,
            "records_skipped_ipv6": self.skipped_ipv6,
            "records_skipped_malformed": self.skipped_malformed,
            "lines_consumed": self.lines,
            "windows_written": windows,
            "windows_partial": int(self.packets % window_packets != 0),
            "tars_finalized": -(-windows // per_tar),
            "packets_total": self.packets,
        }


def generate(workload: str, seed: int, path: Path) -> Oracle:
    """Write the workload's input for this seed to path; same seed, same bytes."""
    from flowmat import flowgen

    n = LINES[workload]
    if workload == "suricata_mixed":
        return _suricata_mixed(n, seed, path)
    if workload == "uniform_bulk":
        cfg = flowgen.GenConfig(n_flows=n, seed=seed)
    elif workload == "elephant_windows":
        cfg = flowgen.GenConfig(n_flows=n, geometric_mean=65536, split=0.5, seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(path, "wb") as out:
        for line in flowgen.generate(cfg):
            out.write(line + b"\n")
    return Oracle(lines=n, records_ok=n, packets=flowgen.packet_total(cfg))


# --- suricata_mixed ----------------------------------------------------------

_TS = "2024-09-18T%02d:%02d:%02d.%06d+0000"

_FLOW = (
    '{"timestamp":"%s","flow_id":%d,"in_iface":"ens1f0","event_type":"flow",'
    '"src_ip":"%s","src_port":%d,"dest_ip":"%s","dest_port":%d,"proto":"TCP",'
    '"app_proto":"%s","flow":{"pkts_toserver":%d,"pkts_toclient":%d,'
    '"bytes_toserver":%d,"bytes_toclient":%d,"start":"%s","end":"%s","age":%d,'
    '"state":"closed","reason":"timeout","alerted":false},'
    '"tcp":{"tcp_flags":"1b","syn":true,"fin":true,"psh":true,"ack":true,'
    '"state":"closed"},"host":"sensor-01"}'
)

_OTHER_EVENTS = (
    '{"timestamp":"%s","flow_id":%d,"in_iface":"ens1f0","event_type":"dns",'
    '"src_ip":"%s","src_port":%d,"dest_ip":"%s","dest_port":53,"proto":"UDP",'
    '"dns":{"type":"query","id":%d,"rrname":"cdn%d.example.com","rrtype":"A","tx_id":0}}',
    '{"timestamp":"%s","flow_id":%d,"in_iface":"ens1f0","event_type":"http",'
    '"src_ip":"%s","src_port":%d,"dest_ip":"%s","dest_port":80,"proto":"TCP",'
    '"tx_id":0,"http":{"hostname":"www.example.org","url":"\\/static\\/js\\/app.%d.js?v=3",'
    '"http_user_agent":"Mozilla\\/5.0 (X11; Linux x86_64)",'
    '"http_content_type":"application\\/javascript","http_method":"GET",'
    '"protocol":"HTTP\\/1.1","status":200,"length":%d}}',
    '{"timestamp":"%s","flow_id":%d,"in_iface":"ens1f0","event_type":"tls",'
    '"src_ip":"%s","src_port":%d,"dest_ip":"%s","dest_port":443,"proto":"TCP",'
    '"tls":{"subject":"CN=api%d.example.com","issuerdn":"C=US, O=Example CA",'
    '"sni":"api.example.com","version":"TLS 1.3","ja3":{"hash":"%032x"}}}',
    '{"timestamp":"%s","flow_id":%d,"in_iface":"ens1f0","event_type":"alert",'
    '"src_ip":"%s","src_port":%d,"dest_ip":"%s","dest_port":3306,"proto":"TCP",'
    '"alert":{"action":"allowed","gid":1,"signature_id":%d,"rev":3,'
    '"signature":"ET POLICY Suspicious inbound to mySQL port 3306 \\/ \\"probe\\"",'
    '"category":"Potentially Bad Traffic","severity":2}}',
)

_APP_PROTOS = ("tls", "http", "ssh", "smtp", "failed")
_PORTS = (22, 25, 80, 443, 8443)
_RANDS_PER_LINE = 16
_CHUNK = 1 << 14


def _ipv4(r: int) -> str:
    return "%d.%d.%d.%d" % (r >> 24 & 255, r >> 16 & 255, r >> 8 & 255, r & 255)


def _ipv6(r: int) -> str:
    return "2001:db8:%x:%x::%x" % (r >> 32 & 0xFFFF, r >> 16 & 0xFFFF, r & 0xFFFF)


def _ts(r: int) -> str:
    return _TS % (r % 24, r // 24 % 60, r // 1440 % 60, r // 86400 % 1_000_000)


def _flow_line(r: list, src: str, dst: str, toserver: int, toclient: int) -> str:
    """One flow event; r holds the line's random integers, each in [0, 2^62)."""
    return _FLOW % (
        _ts(r[3]), r[4] >> 10, src, 1024 + r[5] % 64512, dst, _PORTS[r[6] % 5],
        _APP_PROTOS[r[7] % 5], toserver, toclient, toserver * 90, toclient * 700,
        _ts(r[8]), _ts(r[9]), r[10] % 600,
    )


def _other_line(r: list) -> str:
    which = r[0] % len(_OTHER_EVENTS)
    head = (_ts(r[1]), r[2] >> 10, _ipv4(r[3]), 1024 + r[4] % 64512, _ipv4(r[5]))
    tail = (
        (r[6] % 65536, r[7] % 1000),
        (r[6] % 1000, 100 + r[7] % 100_000),
        (r[6] % 1000, r[7]),
        (2_000_000 + r[6] % 100_000,),
    )[which]
    return _OTHER_EVENTS[which] % (head + tail)


def _suricata_mixed(n: int, seed: int, path: Path) -> Oracle:
    """Suricata-shaped stream: IPv4 flows, IPv6 flows, other events, cut lines.

    IPv4 flow addresses and packet counts are those of
    ``GenConfig(addr_model="zipf", geometric_mean=20, split=0.5)``.
    """
    from flowmat import flowgen

    rng = np.random.default_rng([seed, 1])
    kinds = rng.choice(4, size=n, p=_KIND_SHARES)
    counts = np.bincount(kinds, minlength=4)
    cfg = flowgen.GenConfig(
        n_flows=int(counts[_FLOW4]), addr_model="zipf", geometric_mean=20,
        split=0.5, seed=seed,
    )
    flows = flowgen.generate(cfg)
    oracle = Oracle(
        lines=n,
        records_ok=int(counts[_FLOW4]),
        skipped_ipv6=int(counts[_FLOW6]),
        skipped_non_flow=int(counts[_OTHER]),
        skipped_malformed=int(counts[_TRUNCATED]),
    )
    with open(path, "w", encoding="ascii", newline="\n") as out:
        for lo in range(0, n, _CHUNK):
            rands = rng.integers(0, 1 << 62, size=(min(_CHUNK, n - lo), _RANDS_PER_LINE))
            for i, kind, r in zip(range(lo, n), kinds[lo : lo + _CHUNK].tolist(), rands.tolist()):
                expected = None
                if kind == _FLOW4:
                    doc = json.loads(next(flows))
                    ts, tc = doc["flow"]["pkts_toserver"], doc["flow"]["pkts_toclient"]
                    line = _flow_line(r, doc["src_ip"], doc["dest_ip"], ts, tc)
                    oracle.packets += ts + tc
                    expected = (doc["src_ip"], doc["dest_ip"], ts, tc)
                elif kind == _FLOW6:
                    line = _flow_line(r, _ipv6(r[11]), _ipv6(r[12]), 5, 4)
                elif kind == _OTHER:
                    line = _other_line(r)
                else:
                    # a strict prefix of a JSON object never parses
                    full = _flow_line(r, _ipv4(r[11]), _ipv4(r[12]), 3, 2)
                    line = full[: 20 + r[13] % (len(full) - 21)]
                if i < SELF_CHECK_LINES:
                    oracle.sample.append((kind, expected))
                out.write(line)
                out.write("\n")
    return oracle


def self_check(path: Path, oracle: Oracle) -> list[str]:
    """Compare the oracle's first lines with flowmat's own parser, line by line."""
    from flowmat.eve import FlowRecord, Skip, parse_flow_record

    skip_for = {_FLOW6: Skip.IPV6, _OTHER: Skip.NON_FLOW, _TRUNCATED: Skip.MALFORMED}
    errors = []
    with open(path, "rb") as fh:
        for lineno, ((kind, expected), line) in enumerate(zip(oracle.sample, fh), 1):
            got = parse_flow_record(line.rstrip(b"\n"))
            if kind == _FLOW4:
                src, dst, ts, tc = expected
                want = FlowRecord(
                    int(ipaddress.IPv4Address(src)), int(ipaddress.IPv4Address(dst)), ts, tc
                )
            else:
                want = skip_for[kind]
            if got != want:
                errors.append(f"line {lineno}: parser gives {got!r}, oracle says {want!r}")
    return errors
