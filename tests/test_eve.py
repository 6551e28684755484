import json
import os
import random
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmat import eve, shard
from flowmat.eve import (
    MAX_LINE_BYTES,
    FlowRecord,
    IngestCounters,
    Skip,
    _compact_flow_pattern,
    _parse_json,
    open_source,
    parse_columns,
    parse_flow_record,
)
from tests.conftest import criterion_9_corpus

FLOW_LINE = (
    b'{"event_type":"flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2",'
    b'"flow":{"pkts_toserver":7,"pkts_toclient":3}}'
)


def test_parse_basic_flow():
    rec = parse_flow_record(FLOW_LINE)
    assert rec == FlowRecord(0x0A000001, 0x0A000002, 7, 3)


# json.dumps's default separators put a space after "," and ":", which the
# compact clause never takes; the compact form reaches it
SEPARATORS = pytest.mark.parametrize(
    "separators", [(", ", ": "), (",", ":")], ids=["default", "compact"]
)


@SEPARATORS
def test_parse_ignores_extra_fields(separators):
    doc = json.loads(FLOW_LINE)
    doc["proto"] = "TCP"
    doc["flow"]["bytes_toserver"] = 4000
    doc["timestamp"] = "2024-01-01T00:00:00.000000+0000"
    line = json.dumps(doc, separators=separators).encode()
    assert parse_flow_record(line) == parse_flow_record(FLOW_LINE)


@SEPARATORS
def test_parse_key_order_independent(separators):
    doc = json.loads(FLOW_LINE)
    keys = list(doc)
    random.Random(7).shuffle(keys)
    permuted = json.dumps({k: doc[k] for k in keys}, separators=separators).encode()
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


@pytest.mark.parametrize("depth", [10**3, 10**5])
@pytest.mark.parametrize("opener, closer", [(b"[", b"]"), (b'{"a":', b"}")],
                         ids=["array", "object"])
def test_parse_deeply_nested_line_is_malformed(depth, opener, closer):
    # a flow line but for one value nested deeper than json.loads may recurse
    line = FLOW_LINE[:-1] + b',"x":' + opener * depth + b"0" + closer * depth + b"}"
    assert parse_flow_record(line) is Skip.MALFORMED
    counters = IngestCounters()
    batch = parse_columns([FLOW_LINE, line, FLOW_LINE], counters)
    assert len(batch) == counters.records_ok == 2
    assert counters.records_skipped_malformed == 1


def test_parse_never_raises_on_random_bytes():
    rnd = random.Random(99)
    counters = IngestCounters()
    n = 2000
    lines = [bytes(rnd.randrange(256) for _ in range(rnd.randrange(0, 80))) for _ in range(n)]
    parse_columns(lines, counters)
    assert counters.lines_consumed == n


# --- the compact clause against the strict json.loads clause ---------------

def compact_record(line: bytes) -> FlowRecord | None:
    """The record the compact grammar's groups spell for a line it fully matches, else None."""
    match = _compact_flow_pattern().fullmatch(line)
    if match is None:
        return None
    s1, s2, s3, s4, d1, d2, d3, d4, toserver, toclient = map(int, match.groups())
    return FlowRecord(
        s1 << 24 | s2 << 16 | s3 << 8 | s4, d1 << 24 | d2 << 16 | d3 << 8 | d4, toserver, toclient
    )


HEAD = b'{"event_type":"flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2",'
COUNTS = b'"flow":{"pkts_toserver":7,"pkts_toclient":3}'


def flow_line(head=HEAD, counts=COUNTS, tail=b""):
    return head + counts + tail + b"}"


def padded_to(size: int) -> bytes:
    """A valid compact flow line of exactly size bytes."""
    short = flow_line(tail=b',"pad":""')
    return flow_line(tail=b',"pad":"' + b"x" * (size - len(short)) + b'"')


# a 570-byte flow event as Suricata writes it, with flow and tcp objects
SURICATA_FLOW = (
    b'{"timestamp":"2024-09-18T00:27:39.721839+0000","flow_id":1032111485361264,'
    b'"in_iface":"ens1f0","event_type":"flow","src_ip":"158.55.121.177","src_port":8406,'
    b'"dest_ip":"134.152.143.140","dest_port":80,"proto":"TCP","app_proto":"tls",'
    b'"flow":{"pkts_toserver":11,"pkts_toclient":11,"bytes_toserver":990,'
    b'"bytes_toclient":7700,"start":"2024-09-18T20:43:15.467517+0000",'
    b'"end":"2024-09-18T23:55:07.141860+0000","age":595,"state":"closed",'
    b'"reason":"timeout","alerted":false},"tcp":{"tcp_flags":"1b","syn":true,"fin":true,'
    b'"psh":true,"ack":true,"state":"closed"},"host":"sensor-01"}'
)

# (name, line, whether the compact clause takes it)
EDGE_CASES = [
    ("basic", FLOW_LINE, True),
    ("5000_digit_member", flow_line(tail=b',"x":' + b"9" * 5000), False),
    ("20_digit_member", flow_line(tail=b',"x":' + b"9" * 20), True),
    ("exactly_max_line_bytes", padded_to(MAX_LINE_BYTES), True),
    ("max_line_bytes_plus_one", padded_to(MAX_LINE_BYTES + 1), False),
    ("count_minus_zero", flow_line(counts=b'"flow":{"pkts_toserver":-0,"pkts_toclient":3}'), False),
    ("count_leading_zero", flow_line(counts=b'"flow":{"pkts_toserver":07,"pkts_toclient":3}'), False),
    ("count_float", flow_line(counts=b'"flow":{"pkts_toserver":1.0,"pkts_toclient":3}'), False),
    ("count_true", flow_line(counts=b'"flow":{"pkts_toserver":true,"pkts_toclient":3}'), False),
    ("count_19_digits", flow_line(counts=b'"flow":{"pkts_toserver":9999999999999999999,"pkts_toclient":3}'), True),
    ("count_2_64_minus_1", flow_line(counts=b'"flow":{"pkts_toserver":18446744073709551615,"pkts_toclient":3}'), False),
    ("count_2_64", flow_line(counts=b'"flow":{"pkts_toserver":18446744073709551616,"pkts_toclient":3}'), False),
    ("duplicate_src_ip_after", flow_line(tail=b',"src_ip":"10.9.9.9"'), False),
    ("duplicate_src_ip_before", b'{"src_ip":"10.9.9.9",' + flow_line()[1:], False),
    ("duplicate_event_type", flow_line(tail=b',"event_type":"alert"'), False),
    ("duplicate_flow", flow_line(tail=b',"flow":{"pkts_toserver":1,"pkts_toclient":1}'), False),
    ("duplicate_pkts_toclient_in_flow", flow_line(counts=b'"flow":{"pkts_toserver":7,"pkts_toclient":3,"pkts_toclient":9}'), False),
    ("duplicate_pkts_toserver_in_flow", flow_line(counts=b'"flow":{"pkts_toserver":7,"pkts_toserver":5,"pkts_toclient":3}'), False),
    ("duplicate_src_ip_in_other_object", flow_line(tail=b',"tcp":{"src_ip":"9.9.9.9","src_ip":"8.8.8.8"}'), True),
    ("escaped_duplicate_key", flow_line(tail=b',"src\\u005fip":"10.9.9.9"'), False),
    ("escape_in_other_value", flow_line(tail=b',"url":"\\/index.html"'), False),
    ("nan_member", flow_line(tail=b',"x":NaN'), False),
    ("infinity_member", flow_line(tail=b',"x":-Infinity'), False),
    ("array_member", flow_line(tail=b',"x":[1,2]'), False),
    ("nested_object_two_deep", flow_line(tail=b',"x":{"y":{"z":1}}'), False),
    ("space_after_colon", b'{"event_type": "flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2",' + COUNTS + b"}", False),
    ("trailing_cr", flow_line() + b"\r", False),
    ("octet_010", flow_line(head=HEAD.replace(b"10.0.0.1", b"010.0.0.1")), True),
    ("octet_255", flow_line(head=HEAD.replace(b"10.0.0.1", b"10.0.0.255")), True),
    ("octet_256", flow_line(head=HEAD.replace(b"10.0.0.1", b"10.0.0.256")), False),
    ("octet_four_digits", flow_line(head=HEAD.replace(b"10.0.0.1", b"10.0.0.0001")), False),
    ("reordered_top_level_keys", b'{"src_ip":"10.0.0.1","event_type":"flow","dest_ip":"10.0.0.2",' + COUNTS + b"}", False),
    ("reordered_counts", flow_line(counts=b'"flow":{"pkts_toclient":3,"pkts_toserver":7}'), False),
    ("ipv6", flow_line(head=HEAD.replace(b"10.0.0.1", b"2001:db8::1")), False),
    ("non_flow", flow_line(head=HEAD.replace(b'"flow"', b'"alert"', 1)), False),
    ("non_ascii_member", flow_line(tail=',"host":"s\u00e9nsor"'.encode()), False),
    ("suricata_flow", SURICATA_FLOW, True),
]


@pytest.mark.parametrize(
    "line,compact", [case[1:] for case in EDGE_CASES], ids=[case[0] for case in EDGE_CASES]
)
def test_compact_clause_matches_strict_on_edge_cases(line, compact, monkeypatch):
    strict_calls = []

    def counted(strict_line):
        strict_calls.append(strict_line)
        return _parse_json(strict_line)

    monkeypatch.setattr(eve, "_parse_json", counted)
    assert parse_flow_record(line) == _parse_json(line)
    assert (not strict_calls) == compact


@pytest.mark.parametrize("where", ["after_dest_ip", "before_dest_ip"])
def test_compact_clause_near_miss_costs_about_one_json_loads(where):
    # "10" is one octet: if the grammar could also read it as "1" then "0",
    # a line failing after its quads would be retried once per reading
    quad = b"10.10.10.10"
    others = b"".join(b'"k%d":1,' % i for i in range(10000))
    src = b'{"event_type":"flow","src_ip":"%s",' % quad
    dst = b'"dest_ip":"%s",' % quad
    body = src + dst + others if where == "after_dest_ip" else src + others + dst
    line = body + COUNTS + b',"x":[]}'

    def fastest(parse):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            parse(line)
            times.append(time.perf_counter() - start)
        return min(times)

    assert compact_record(line) is None
    assert fastest(compact_record) < 5 * fastest(json.loads)


def test_compact_clause_matches_strict_on_criterion_9_corpus():
    corpus, valid, _ = criterion_9_corpus()
    compact = 0
    for line in corpus:
        assert parse_flow_record(line) == _parse_json(line)
        compact += compact_record(line) is not None
    # every valid flow line of the corpus is compact
    assert compact == valid


def test_parse_columns_equal_parse_flow_record_line_by_line(monkeypatch):
    rnd = random.Random(8)
    spaced = [
        json.dumps({"event_type": "flow", "src_ip": ".".join(str(rnd.randrange(256)) for _ in range(4)),
                    "dest_ip": ".".join(str(rnd.randrange(256)) for _ in range(4)),
                    "flow": {"pkts_toserver": rnd.randrange(2**64), "pkts_toclient": rnd.randrange(9)}
                    }).encode()
        for _ in range(300)
    ]
    lines = [case[1] for case in EDGE_CASES] + criterion_9_corpus()[0][:3000] + spaced
    rnd.shuffle(lines)
    counters = IngestCounters()
    whole = parse_columns(lines, counters)
    # the same lines in stream blocks of 7 lines, one batch and one set of counters each
    monkeypatch.setattr(shard, "STREAM_BLOCK_LINES", 7)
    blocks = list(shard.parse_stream(lines, None))
    assert len(blocks) == -(-len(lines) // 7)
    assert all(len(batch) <= 7 for batch, _, _ in blocks)
    block_counters = IngestCounters()
    for _, chunk_counters, _ in blocks:
        block_counters.add(chunk_counters)
    results = [parse_flow_record(line) for line in lines]
    for batches in ([whole], [batch for batch, _, _ in blocks]):
        assert all(b.src.dtype == b.dst.dtype == np.uint32 for b in batches)
        assert all(b.toserver.dtype == b.toclient.dtype == np.uint64 for b in batches)
        got = [
            FlowRecord(*rec) for b in batches
            for rec in zip(b.src.tolist(), b.dst.tolist(), b.toserver.tolist(), b.toclient.tolist())
        ]
        assert got == [r for r in results if isinstance(r, FlowRecord)]
    want = IngestCounters(records_ok=len(got))
    for r in results:
        if isinstance(r, Skip):
            want.count_skip(r)
    assert counters == block_counters == want


READ_KEYS = ["event_type", "src_ip", "dest_ip", "flow", "pkts_toserver", "pkts_toclient"]


def _quoted(text: str) -> str:
    return '"' + text + '"'


def _obj(members, comma=",", colon=":") -> str:
    return "{" + comma.join(k + colon + v for k, v in members) + "}"


# Valid compact pieces: a line built only from these takes the compact clause.
COMPACT_STRING = st.text(
    st.characters(codec="ascii", exclude_characters='"\\', min_codepoint=0x20), max_size=8
).map(_quoted)
COMPACT_SCALAR = st.one_of(
    COMPACT_STRING,
    st.integers(-(10**20) + 1, 10**20 - 1).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["true", "false", "null"]),
)
COMPACT_KEY = COMPACT_STRING.filter(lambda k: k[1:-1] not in READ_KEYS)
COMPACT_MEMBER = st.tuples(COMPACT_KEY, COMPACT_SCALAR)
COMPACT_VALUE = st.one_of(COMPACT_SCALAR, st.lists(COMPACT_MEMBER, max_size=2).map(_obj))
COMPACT_OTHERS = st.lists(st.tuples(COMPACT_KEY, COMPACT_VALUE), max_size=2)
COMPACT_FLOW_OTHERS = st.lists(COMPACT_MEMBER, max_size=2)
QUAD = st.lists(
    st.tuples(st.sampled_from(["%d", "%02d", "%03d"]), st.integers(0, 255)).map(lambda t: t[0] % t[1]),
    min_size=4,
    max_size=4,
).map(".".join).map(_quoted)
VALID_COUNT = st.integers(0, 10**19 - 1).map(str)

# Pieces that may break the compact grammar, the JSON, or both.
KEY = st.one_of(
    st.sampled_from(READ_KEYS).map(_quoted),
    st.sampled_from(READ_KEYS).map(json.dumps).map(lambda k: k.replace("_", "\\u005f")),
    st.sampled_from(["src_ip ", "Flow", "pkts_toserver_"]).map(_quoted),
    COMPACT_KEY,
)
STRING = st.one_of(
    st.text(max_size=6).map(json.dumps),  # escaped quotes, backslashes and non-ASCII
    st.text(max_size=6).map(lambda t: json.dumps(t, ensure_ascii=False)),
    st.text(max_size=4).map(_quoted),  # raw quotes, backslashes, control bytes
)
SCALAR = st.one_of(
    STRING,
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(json.dumps),  # includes NaN and Infinity
    st.sampled_from(["-0", "01", "1.", ".5", "1e5", "1E-2", "-", "tru", "9" * 21, "9" * 5000]),
)
MEMBER = st.tuples(KEY, st.one_of(SCALAR, COMPACT_SCALAR))
VALUE = st.one_of(
    SCALAR,
    st.lists(MEMBER, max_size=3).map(_obj),
    COMPACT_OTHERS.map(_obj),  # objects nested two deep
    st.lists(SCALAR, max_size=2).map(lambda items: "[" + ",".join(items) + "]"),
)
OCTET = st.one_of(
    st.integers(0, 999).map(str),
    st.sampled_from(["0000", "", "-1", "1a", " 1", "\\u0031"]),
)
IP = st.one_of(
    st.lists(OCTET, min_size=3, max_size=5).map(".".join).map(_quoted),
    st.sampled_from(['"2001:db8::1"', '"::ffff:1.2.3.4"', "10", "null"]),
)
COUNT = st.one_of(
    st.integers(0, 2**64 + 2).map(str),
    st.integers(2**64 - 3, 2**64 + 3).map(str),
    st.sampled_from(["-0", "-1", "007", "1.0", "1e3", "true", "null", '"5"', "9" * 20, "9" * 5000]),
)
SPACE = st.sampled_from([" ", "\t", "\r", "\n", "\x0c"])


@st.composite
def flow_lines(draw):
    """Flow lines, each aspect either compact and valid or, one time in six, not.

    The odd aspects: event type, addresses, counts, extra members (read keys,
    escapes, NaN, arrays, deep objects), key order, separators and
    surrounding whitespace.
    """

    def pick(tame, wild):
        return draw(wild if draw(st.integers(0, 5)) == 0 else tame)

    flow = [('"pkts_toserver"', pick(VALID_COUNT, COUNT)), ('"pkts_toclient"', pick(VALID_COUNT, COUNT))]
    flow += pick(COMPACT_FLOW_OTHERS, st.lists(MEMBER, max_size=3))
    members = [
        ('"event_type"', pick(st.just('"flow"'), st.sampled_from(['"alert"', '"Flow"', "null"]))),
        ('"src_ip"', pick(QUAD, IP)),
        ('"dest_ip"', pick(QUAD, IP)),
    ]
    extra = pick(COMPACT_OTHERS, st.lists(st.tuples(KEY, VALUE), max_size=4))
    rnd = draw(st.randoms(use_true_random=False))
    if pick(st.just(False), st.just(True)):
        rnd.shuffle(flow)
    members.append(('"flow"', _obj(flow)))
    for member in extra:
        members.insert(rnd.randrange(len(members) + 1), member)
    if pick(st.just(False), st.just(True)):
        rnd.shuffle(members)
    comma, colon = pick(st.just((",", ":")), st.sampled_from([(", ", ": "), (",", " :"), (",\n", ":")]))
    lead, trail = pick(st.just(""), SPACE), pick(st.just(""), SPACE)
    return (lead + _obj(members, comma, colon) + trail).encode()


@settings(max_examples=1000, deadline=None)
@given(flow_lines())
def test_compact_clause_matches_strict_on_generated_lines(line):
    assert parse_flow_record(line) == _parse_json(line)


@st.composite
def compact_flow_lines(draw):
    """Valid compact flow lines in Suricata's key order: all take the compact clause."""
    flow = draw(COMPACT_FLOW_OTHERS) + [('"pkts_toserver"', draw(VALID_COUNT))]
    flow += draw(COMPACT_FLOW_OTHERS) + [('"pkts_toclient"', draw(VALID_COUNT))]
    flow += draw(COMPACT_FLOW_OTHERS)
    members = draw(COMPACT_OTHERS) + [('"event_type"', '"flow"')]
    members += draw(COMPACT_OTHERS) + [('"src_ip"', draw(QUAD))]
    members += draw(COMPACT_OTHERS) + [('"dest_ip"', draw(QUAD))]
    members += draw(COMPACT_OTHERS) + [('"flow"', _obj(flow))] + draw(COMPACT_OTHERS)
    return _obj(members).encode()


@settings(max_examples=1000, deadline=None)
@given(
    compact_flow_lines(),
    st.sampled_from(["flip", "insert", "delete"]),
    st.integers(0, 1 << 16),
    st.integers(1, 255),
)
def test_compact_clause_matches_strict_on_mutations(line, op, where, byte):
    assert compact_record(line) == _parse_json(line)
    i = where % (len(line) + (op == "insert"))
    if op == "flip":
        mutated = line[:i] + bytes([line[i] ^ byte]) + line[i + 1 :]
    elif op == "insert":
        mutated = line[:i] + bytes([byte]) + line[i:]
    else:
        mutated = line[:i] + line[i + 1 :]
    assert parse_flow_record(mutated) == _parse_json(mutated)


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
