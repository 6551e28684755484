import json
import os
import random
import socket
import threading

import pytest

from flowmat.eve import (
    MAX_LINE_BYTES,
    FlowRecord,
    IngestCounters,
    Skip,
    open_source,
    parse_flow_record,
)

FLOW_LINE = (
    b'{"event_type":"flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2",'
    b'"flow":{"pkts_toserver":7,"pkts_toclient":3}}'
)


def test_parse_basic_flow():
    rec = parse_flow_record(FLOW_LINE)
    assert rec == FlowRecord(0x0A000001, 0x0A000002, 7, 3)


def test_parse_ignores_extra_fields():
    doc = json.loads(FLOW_LINE)
    doc["proto"] = "TCP"
    doc["flow"]["bytes_toserver"] = 4000
    doc["timestamp"] = "2024-01-01T00:00:00.000000+0000"
    assert parse_flow_record(json.dumps(doc).encode()) == parse_flow_record(FLOW_LINE)


def test_parse_key_order_independent():
    doc = json.loads(FLOW_LINE)
    keys = list(doc)
    random.Random(7).shuffle(keys)
    permuted = json.dumps({k: doc[k] for k in keys}).encode()
    assert parse_flow_record(permuted) == parse_flow_record(FLOW_LINE)


def test_parse_non_flow_event():
    assert parse_flow_record(b'{"event_type":"alert","src_ip":"1.2.3.4"}') is Skip.NON_FLOW
    assert parse_flow_record(b'{"proto":"TCP"}') is Skip.NON_FLOW


def test_parse_ipv6_skipped():
    line = (
        b'{"event_type":"flow","src_ip":"2001:db8::1","dest_ip":"10.0.0.2",'
        b'"flow":{"pkts_toserver":1,"pkts_toclient":0}}'
    )
    assert parse_flow_record(line) is Skip.IPV6


@pytest.mark.parametrize(
    "line",
    [
        b"",
        b"not json",
        FLOW_LINE[:-10],  # truncated
        b"[1,2,3]",
        b'{"event_type":"flow"}',
        b'{"event_type":"flow","src_ip":"10.0.0.256","dest_ip":"10.0.0.2","flow":{"pkts_toserver":1,"pkts_toclient":0}}',
        b'{"event_type":"flow","src_ip":"10.0.0","dest_ip":"10.0.0.2","flow":{"pkts_toserver":1,"pkts_toclient":0}}',
        b'{"event_type":"flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2","flow":{"pkts_toserver":-1,"pkts_toclient":0}}',
        b'{"event_type":"flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2","flow":{"pkts_toserver":1.5,"pkts_toclient":0}}',
        b'{"event_type":"flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2","flow":{"pkts_toserver":1e3,"pkts_toclient":0}}',
        b'{"event_type":"flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2","flow":{"pkts_toserver":true,"pkts_toclient":0}}',
        b'{"event_type":"flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2","flow":{"pkts_toserver":18446744073709551616,"pkts_toclient":0}}',
        b'{"event_type":"flow","src_ip":10,"dest_ip":"10.0.0.2","flow":{"pkts_toserver":1,"pkts_toclient":0}}',
        # non-ASCII digits: superscript two (int() rejects it) and Arabic-Indic one
        '{"event_type":"flow","src_ip":"1.2.3.\u00b2","dest_ip":"10.0.0.2","flow":{"pkts_toserver":1,"pkts_toclient":0}}'.encode(),
        '{"event_type":"flow","src_ip":"\u0661.2.3.4","dest_ip":"10.0.0.2","flow":{"pkts_toserver":1,"pkts_toclient":0}}'.encode(),
    ],
)
def test_parse_malformed(line):
    assert parse_flow_record(line) is Skip.MALFORMED


def test_parse_large_counts_accepted():
    line = (
        b'{"event_type":"flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2",'
        b'"flow":{"pkts_toserver":18446744073709551615,"pkts_toclient":0}}'
    )
    rec = parse_flow_record(line)
    assert rec.pkts_toserver == 2**64 - 1


def test_parse_overlong_line_is_malformed():
    assert parse_flow_record(b"x" * (MAX_LINE_BYTES + 1)) is Skip.MALFORMED


def test_parse_never_raises_on_random_bytes():
    rnd = random.Random(99)
    counters = IngestCounters()
    n = 2000
    for _ in range(n):
        line = bytes(rnd.randrange(256) for _ in range(rnd.randrange(0, 80)))
        counters.count(parse_flow_record(line))
    assert counters.lines_consumed == n


def test_open_source_file(tmp_path):
    path = tmp_path / "eve.json"
    path.write_bytes(FLOW_LINE + b"\n" + b'{"event_type":"alert"}' + b"\n" + FLOW_LINE + b"\n")
    src = open_source(str(path))
    lines = list(src)
    src.close()
    assert len(lines) == 3
    assert lines[0] == FLOW_LINE


def test_open_source_file_without_trailing_newline(tmp_path):
    path = tmp_path / "eve.json"
    path.write_bytes(FLOW_LINE + b"\n" + FLOW_LINE)
    src = open_source(str(path))
    assert list(src) == [FLOW_LINE, FLOW_LINE]
    src.close()


def test_open_source_skips_blank_lines(tmp_path):
    path = tmp_path / "eve.json"
    path.write_bytes(b"\n" + FLOW_LINE + b"\n\n")
    src = open_source(str(path))
    assert list(src) == [FLOW_LINE]
    src.close()


def test_open_source_overlong_line(tmp_path):
    path = tmp_path / "eve.json"
    path.write_bytes(b"a" * (MAX_LINE_BYTES + 100) + b"\n" + FLOW_LINE + b"\n")
    src = open_source(str(path))
    lines = list(src)
    src.close()
    assert len(lines) == 2
    assert parse_flow_record(lines[0]) is Skip.MALFORMED
    assert parse_flow_record(lines[1]) == parse_flow_record(FLOW_LINE)


def test_open_source_missing_file(tmp_path):
    with pytest.raises(OSError, match="no_such_file"):
        open_source(str(tmp_path / "no_such_file"))


def test_socket_source_two_connections(tmp_path):
    path = str(tmp_path / "eve.sock")
    src = open_source(path, socket_mode=True)
    received = []

    def consume():
        for line in src:
            received.append(line)

    consumer = threading.Thread(target=consume)
    consumer.start()

    for payload in (FLOW_LINE + b"\n", b'{"event_type":"alert"}\n' + FLOW_LINE + b"\n"):
        peer = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        peer.connect(path)
        peer.sendall(payload)
        peer.close()

    for _ in range(500):
        if len(received) >= 3:
            break
        threading.Event().wait(0.01)
    src.close()
    consumer.join(timeout=5)
    assert not consumer.is_alive()
    assert received.count(FLOW_LINE) == 2
    assert not os.path.exists(path)
