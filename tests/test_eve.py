import itertools
import json
import os
import random
import re
import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowmat import eve, shard
from flowmat.eve import (
    MAX_LINE_BYTES,
    FlowRecord,
    IngestCounters,
    Skip,
    open_source,
    parse_columns,
    parse_flow_record,
)
from flowmat.flowgen import GenConfig, generate
from tests.conftest import assert_stream_blocks, criterion_9_corpus, suricata_lines

FLOW_LINE = (
    b'{"event_type":"flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2",'
    b'"flow":{"pkts_toserver":7,"pkts_toclient":3}}'
)


def test_parse_basic_flow():
    rec = parse_flow_record(FLOW_LINE)
    assert rec == FlowRecord(0x0A000001, 0x0A000002, 7, 3)


# json.dumps's default separators put a space after "," and ":"; the compact
# form has none, as Suricata writes it
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


# --- the shape cache of parse_columns against parse_flow_record ------------

def digit_variants(line: bytes) -> list[bytes]:
    """Copies of line with its shape: every digit run replaced in one of six ways.

    The runs become "0", "1", the run after a "0", the run reversed, a number
    below 256, or a number of 1 to 20 digits, so some copies keep each run's
    rule and some break it.
    """
    rnd = random.Random(line)
    pieces = re.split(rb"([0-9]+)", line)  # the digit runs are the odd pieces
    replacements = [
        lambda run: b"0", lambda run: b"1", lambda run: b"0" + run, lambda run: run[::-1],
        lambda run: b"%d" % rnd.randrange(256),
        lambda run: b"%d" % rnd.randrange(10 ** rnd.randrange(1, 21)),
    ]
    return [b"".join(replace(piece) if i % 2 else piece for i, piece in enumerate(pieces))
            for replace in replacements]


def value_variants(line: bytes) -> list[bytes]:
    """Copies of line with every string value that follows '":' made "q", "a:b", "7.5" or "".

    A line whose values all lack ':', or all hold one, shares its collapsed
    shape with the first copy or the second; the others collapse less.
    """
    return [re.sub(rb'(?<=":")[^"\\]*(?=")', value, line) for value in (b"q", b"a:b", b"7.5", b"")]


def batch_records(batch) -> list[FlowRecord]:
    columns = (batch.src, batch.dst, batch.toserver, batch.toclient)
    return [FlowRecord(*record) for record in zip(*(column.tolist() for column in columns))]


def shape_parsed(lines: list[bytes]) -> tuple[list[FlowRecord], IngestCounters]:
    """The records and counters parse_columns gives lines."""
    counters = IngestCounters()
    return batch_records(parse_columns(lines, counters)), counters


def strict_parsed(lines: list[bytes]) -> tuple[list[FlowRecord], IngestCounters]:
    """The records and counters parse_flow_record gives lines, one by one."""
    records, counters = [], IngestCounters()
    for line in lines:
        outcome = parse_flow_record(line)
        if isinstance(outcome, Skip):
            counters.count({outcome: 1})
        else:
            records.append(outcome)
            counters.records_ok += 1
    return records, counters


def assert_shape_path_matches_strict(lines: list[bytes], *, line_by_line: bool = True) -> int:
    """parse_columns agrees with parse_flow_record on lines, each repeated and in varied copies.

    A line's copies with other digits share its shape, and some of those
    with other string values its collapsed shape, so parsing them all as one
    block teaches a fresh shape cache the shapes they hold. Then the cache decides
    those lines again, one by one unless line_by_line is False, and each
    must get the outcome parse_flow_record gives it. Returns how many lines
    the cache decided, not sending them to parse_flow_record, that second time.
    """
    eve._SHAPES = eve._ShapeCache()  # the empty_shape_cache fixture restores it
    block = [copy for line in lines
             for copy in (line, line, *digit_variants(line), *value_variants(line))]
    assert shape_parsed(block) == strict_parsed(block)
    fallen = []

    def counted(line):
        fallen.append(line)
        return parse_flow_record(line)

    eve.parse_flow_record = counted
    try:
        for part in [[line] for line in block] if line_by_line else [block]:
            assert shape_parsed(part) == strict_parsed(part), part
    finally:
        eve.parse_flow_record = parse_flow_record
    return len(block) - len(fallen)


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
SURICATA_IPV6_FLOW = SURICATA_FLOW.replace(b"158.55.121.177", b"2001:db8:e4f1:3531::7db3")
# other Suricata events, with escapes in their strings, up to three containers deep
SURICATA_ALERT = (
    b'{"timestamp":"2024-09-18T00:16:41.808582+0000","flow_id":4451797972772279,'
    b'"in_iface":"ens1f0","event_type":"alert","src_ip":"248.85.94.12","src_port":37435,'
    b'"dest_ip":"188.113.134.253","dest_port":3306,"proto":"TCP","alert":{"action":"allowed",'
    b'"gid":1,"signature_id":2074100,"rev":3,'
    b'"signature":"ET POLICY Suspicious inbound to mySQL port 3306 \\/ \\"probe\\"",'
    b'"category":"Potentially Bad Traffic \\u00e9","severity":2}}'
)
# a rule's metadata puts alert lines four containers deep, past DEPTH
SURICATA_ALERT_WITH_METADATA = SURICATA_ALERT[:-2] + b',"metadata":{"tag":["sql"]}}}'
SURICATA_TLS = (
    b'{"timestamp":"2024-09-18T00:16:41.808582+0000","event_type":"tls","src_ip":"10.1.2.3",'
    b'"tls":{"subject":"CN=api1.example.com","issuerdn":"C=US, O=Example CA",'
    b'"version":"TLS 1.3","ja3":{"hash":"6734f37431670b3ab4292b8f60f29984"}}}'
)


def event(*members: bytes) -> bytes:
    return b"{" + b",".join(members) + b"}"


def nested(depth: int) -> bytes:
    """A member value that makes its line depth containers deep, the top-level object included."""
    value = b"1"
    for level in range(depth - 1):
        value = b"[%s]" % value if level % 2 else b'{"k":%s}' % value
    return value


# the containers most Suricata events nest, the top-level object included;
# the edge cases and generated lines reach it and go one past it
DEPTH = 3
ALERT = b'"event_type":"alert"'
V6_HEAD = b'"event_type":"flow","src_ip":"2001:db8::1","dest_ip":"10.0.0.2"'

# (name, line): lines at the edges of what is valid and what is a record
EDGE_CASES = [
    ("basic", FLOW_LINE),
    ("5000_digit_member", flow_line(tail=b',"x":' + b"9" * 5000)),
    ("20_digit_member", flow_line(tail=b',"x":' + b"9" * 20)),
    ("exactly_max_line_bytes", padded_to(MAX_LINE_BYTES)),
    ("max_line_bytes_plus_one", padded_to(MAX_LINE_BYTES + 1)),
    ("count_minus_zero", flow_line(counts=b'"flow":{"pkts_toserver":-0,"pkts_toclient":3}')),
    ("count_leading_zero", flow_line(counts=b'"flow":{"pkts_toserver":07,"pkts_toclient":3}')),
    ("count_float", flow_line(counts=b'"flow":{"pkts_toserver":1.0,"pkts_toclient":3}')),
    ("count_true", flow_line(counts=b'"flow":{"pkts_toserver":true,"pkts_toclient":3}')),
    ("count_19_digits", flow_line(counts=b'"flow":{"pkts_toserver":9999999999999999999,"pkts_toclient":3}')),
    ("count_2_64_minus_1", flow_line(counts=b'"flow":{"pkts_toserver":18446744073709551615,"pkts_toclient":3}')),
    ("count_2_64", flow_line(counts=b'"flow":{"pkts_toserver":18446744073709551616,"pkts_toclient":3}')),
    ("duplicate_src_ip_after", flow_line(tail=b',"src_ip":"10.9.9.9"')),
    ("duplicate_src_ip_before", b'{"src_ip":"10.9.9.9",' + flow_line()[1:]),
    ("duplicate_event_type", flow_line(tail=b',"event_type":"alert"')),
    ("duplicate_flow", flow_line(tail=b',"flow":{"pkts_toserver":1,"pkts_toclient":1}')),
    ("duplicate_pkts_toclient_in_flow", flow_line(counts=b'"flow":{"pkts_toserver":7,"pkts_toclient":3,"pkts_toclient":9}')),
    ("duplicate_pkts_toserver_in_flow", flow_line(counts=b'"flow":{"pkts_toserver":7,"pkts_toserver":5,"pkts_toclient":3}')),
    ("duplicate_src_ip_in_other_object", flow_line(tail=b',"tcp":{"src_ip":"9.9.9.9","src_ip":"8.8.8.8"}')),
    ("escaped_duplicate_key", flow_line(tail=b',"src\\u005fip":"10.9.9.9"')),
    ("escape_in_other_value", flow_line(tail=b',"url":"\\/index.html"')),
    ("nan_member", flow_line(tail=b',"x":NaN')),
    ("infinity_member", flow_line(tail=b',"x":-Infinity')),
    ("array_member", flow_line(tail=b',"x":[1,2]')),
    ("nested_object_two_deep", flow_line(tail=b',"x":{"y":{"z":1}}')),
    ("space_after_colon", b'{"event_type": "flow","src_ip":"10.0.0.1","dest_ip":"10.0.0.2",' + COUNTS + b"}"),
    ("trailing_cr", flow_line() + b"\r"),
    ("octet_010", flow_line(head=HEAD.replace(b"10.0.0.1", b"010.0.0.1"))),
    ("octet_255", flow_line(head=HEAD.replace(b"10.0.0.1", b"10.0.0.255"))),
    ("octet_256", flow_line(head=HEAD.replace(b"10.0.0.1", b"10.0.0.256"))),
    ("octet_four_digits", flow_line(head=HEAD.replace(b"10.0.0.1", b"10.0.0.0001"))),
    ("reordered_top_level_keys", b'{"src_ip":"10.0.0.1","event_type":"flow","dest_ip":"10.0.0.2",' + COUNTS + b"}"),
    ("reordered_counts", flow_line(counts=b'"flow":{"pkts_toclient":3,"pkts_toserver":7}')),
    ("ipv6", flow_line(head=HEAD.replace(b"10.0.0.1", b"2001:db8::1"))),
    ("non_flow", flow_line(head=HEAD.replace(b'"flow"', b'"alert"', 1))),
    ("non_ascii_member", flow_line(tail=',"host":"s\u00e9nsor"'.encode())),
    ("suricata_flow", SURICATA_FLOW),
    # other events
    ("event_bare", event(ALERT)),
    ("event_suricata_alert", SURICATA_ALERT),
    ("event_suricata_alert_with_metadata", SURICATA_ALERT_WITH_METADATA),
    ("event_suricata_tls", SURICATA_TLS),
    ("event_type_flows", event(b'"event_type":"flows"')),
    ("event_type_capital_flow", event(b'"event_type":"Flow"')),
    ("event_type_empty", event(b'"event_type":""')),
    ("event_empty_containers", event(ALERT, b'"x":{}', b'"y":[]', b'"z":[{},[]]')),
    ("event_at_depth_cap", event(ALERT, b'"x":' + nested(DEPTH))),
    ("event_over_depth_cap", event(ALERT, b'"x":' + nested(DEPTH + 1))),
    ("event_over_depth_cap_before_type", event(b'"x":' + nested(DEPTH + 1), ALERT)),
    ("event_escapes_in_values", event(ALERT, b'"x":"\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\\uD83D\\uDE00"')),
    ("event_lone_surrogate", event(ALERT, b'"x":"\\ud800"')),
    ("event_escaped_key_in_nested_object", event(ALERT, b'"x":{"event\\u005ftype":"flow"}')),
    ("event_flow_type_in_nested_object", event(ALERT, b'"x":{"event_type":"flow"}')),
    ("event_bad_escape", event(ALERT, b'"x":"\\x41"')),
    ("event_short_unicode_escape", event(ALERT, b'"x":"\\u12"')),
    ("event_raw_tab_in_string", event(ALERT, b'"x":"a\tb"')),
    ("event_del_in_string", event(ALERT, b'"x":"a\x7fb"')),
    ("event_20_digit_integer", event(ALERT, b'"x":' + b"9" * 20)),
    ("event_21_digit_integer", event(ALERT, b'"x":' + b"9" * 21)),
    ("event_4301_digit_integer", event(ALERT, b'"x":' + b"9" * 4301)),
    ("event_5000_digit_fraction", event(ALERT, b'"x":1.' + b"5" * 5000)),
    ("event_huge_exponent", event(ALERT, b'"x":1e999999')),
    ("event_nan", event(ALERT, b'"x":NaN')),
    ("event_infinity", event(ALERT, b'"x":[-Infinity]')),
    ("event_non_ascii", event(ALERT, '"host":"s\u00e9nsor"'.encode())),
    ("event_invalid_utf8", event(ALERT, b'"host":"s\xff"')),
    ("event_space_after_colon", event(b'"event_type": "alert"')),
    ("event_space_between_members", event(ALERT, b' "x":1')),
    ("event_space_in_nested_array", event(ALERT, b'"x":[1, 2]')),
    ("event_trailing_comma", event(ALERT, b"")),
    ("event_trailing_comma_in_array", event(ALERT, b'"x":[1,]')),
    ("event_trailing_comma_in_object", event(ALERT, b'"x":{"a":1,}')),
    ("event_missing_close", event(ALERT)[:-1]),
    ("event_top_level_array", b"[" + event(ALERT) + b"]"),
    ("event_missing_event_type", event(b'"proto":"TCP"')),
    ("event_type_number", event(b'"event_type":1')),
    ("event_type_null", event(b'"event_type":null')),
    ("event_type_array", event(b'"event_type":["flow"]')),
    ("event_duplicate_event_type", event(ALERT, b'"event_type":"dns"')),
    ("event_duplicate_event_type_flow_last", event(ALERT, HEAD[1:-1], COUNTS)),
    ("event_escaped_event_type_key", event(ALERT, b'"event\\u005ftype":"flow"',
                                           HEAD[21:-1], COUNTS)),
    ("event_escaped_flow_value", flow_line(head=HEAD.replace(b'"flow"', b'"\\u0066low"', 1))),
    ("event_escaped_other_value", event(b'"event_type":"\\u0061lert"')),
    ("event_duplicate_src_ip", event(ALERT, b'"src_ip":"1.2.3.4"', b'"src_ip":5')),
    # flows with an IPv6 address
    ("ipv6_suricata", SURICATA_IPV6_FLOW),
    ("ipv6_dest_only", flow_line(head=HEAD.replace(b"10.0.0.2", b"::ffff:1.2.3.4"))),
    # a quad before the ":" must not leave its octets set when the address is taken as IPv6
    ("ipv6_src_quad_with_port", flow_line(head=HEAD.replace(b"10.0.0.1", b"1.2.3.4:80"))),
    ("ipv6_both_addresses", flow_line(head=HEAD.replace(b"10.0.0.1", b"::1").replace(b"10.0.0.2", b"fe80::2"))),
    ("ipv6_without_flow_member", event(V6_HEAD)),
    ("ipv6_flow_member_of_any_value", event(V6_HEAD, b'"flow":[1,{"pkts_toserver":-1}]')),
    ("ipv6_escapes_in_other_values", event(V6_HEAD, b'"x":"\\u00e9\\/"', COUNTS)),
    ("ipv6_at_depth_cap", event(V6_HEAD, b'"x":' + nested(DEPTH))),
    ("ipv6_at_depth_cap_with_counts", event(V6_HEAD, b'"x":' + nested(DEPTH), COUNTS)),
    ("ipv6_over_depth_cap", event(V6_HEAD, b'"x":' + nested(DEPTH + 1))),
    ("ipv6_duplicate_src_ip", event(V6_HEAD, b'"src_ip":"10.0.0.1"', COUNTS)),
    ("ipv6_duplicate_dest_ip", event(V6_HEAD, b'"dest_ip":"::2"', COUNTS)),
    ("ipv6_duplicate_event_type", event(V6_HEAD, b'"event_type":"alert"')),
    ("ipv6_escaped_duplicate_key", event(V6_HEAD, b'"src\\u005fip":"10.0.0.1"', COUNTS)),
    ("ipv6_bad_escape_in_address", event(V6_HEAD.replace(b"::1", b"::1\\x"), COUNTS)),
    ("ipv6_escaped_colon", flow_line(head=HEAD.replace(b"10.0.0.1", b"fe80\\u003a\\u003a1"))),
    ("ipv6_address_not_a_string", event(b'"event_type":"flow","src_ip":"::1","dest_ip":7')),
    ("ipv6_addresses_reordered", event(b'"event_type":"flow","dest_ip":"::2","src_ip":"::1"')),
    ("ipv6_4301_digit_integer", event(V6_HEAD, b'"x":' + b"9" * 4301)),
    ("ipv6_nan", event(V6_HEAD, b'"x":NaN')),
    ("ipv6_non_ascii", event(V6_HEAD, '"host":"s\u00e9nsor"'.encode())),
    ("ipv6_invalid_utf8", event(V6_HEAD, b'"host":"\xff"')),
    ("ipv6_space_between_members", event(V6_HEAD, b' "x":1')),
    ("ipv6_missing_close", event(V6_HEAD)[:-1]),
    ("ipv4_with_vlan_array", SURICATA_FLOW.replace(b'"in_iface":"ens1f0",', b'"in_iface":"ens1f0","vlan":[100],')),
    ("ipv6_both_quads", event(b'"event_type":"flow","src_ip":"1.2.3.4","dest_ip":"5.6.7.8"')),
]


@pytest.mark.parametrize("line", [case[1] for case in EDGE_CASES], ids=[case[0] for case in EDGE_CASES])
def test_compact_clause_matches_strict_on_edge_cases(line):
    assert_shape_path_matches_strict([line])


def test_shape_cache_decides_most_lines_of_the_edge_cases():
    lines = [case[1] for case in EDGE_CASES]
    # half of the eight copies of each line; many rows are malformed or hold a \\u escape
    assert assert_shape_path_matches_strict(lines, line_by_line=False) > 4 * len(lines)


def test_parse_columns_work_on_one_line_is_bounded():
    # about 500,000 digit runs in one string, and a 300,000-item array of numbers: the
    # whole-block passes cost a small factor of one json.loads per line, however many runs
    runs = b"".join([b"1a"] * ((MAX_LINE_BYTES - 100) // 2))
    numbers = b",".join([b"%d" % (i % 100) for i in range(300_000)])
    for line in (event(ALERT, b'"x":"%s"' % runs), flow_line(tail=b',"x":[%s]' % numbers)):
        assert len(line) <= MAX_LINE_BYTES
        copies = [line] * 3

        def fastest(parse):
            times = []
            for _ in range(3):
                eve._SHAPES = eve._ShapeCache()  # the empty_shape_cache fixture restores it
                start = time.perf_counter()
                parse()
                times.append(time.perf_counter() - start)
            return min(times)

        assert shape_parsed(copies) == strict_parsed(copies)
        assert fastest(lambda: parse_columns(copies, IngestCounters())) < 20 * fastest(
            lambda: [json.loads(copy) for copy in copies])


def test_parse_columns_memory_grows_with_the_block_not_with_its_digit_runs():
    # a line of about 500,000 digit runs would cost the shape pass int64 arrays of 20 MB;
    # over _SHAPE_BYTES_MAX, it is left to parse_flow_record
    runs = event(ALERT, b'"x":"%s"' % b"".join([b"1a"] * ((MAX_LINE_BYTES - 100) // 2)))
    assert len(runs) <= MAX_LINE_BYTES
    rnd = random.Random(3)
    flows = [SURICATA_FLOW.replace(b"158.55.121.177", b"10.0.%d.%d" % (rnd.randrange(256), rnd.randrange(256)))
             for _ in range((1 << 18) // len(SURICATA_FLOW))]
    lines = flows + [runs]
    tracemalloc.start()
    try:
        batch = parse_columns(lines, IngestCounters())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(batch) == len(flows)
    assert peak < 8 << 20


def test_file_chunk_memory_grows_with_the_block_not_with_its_digit_runs(tmp_path):
    # the file path's twin of the test above: one chunk read and parsed in place, but for
    # the line over _SHAPE_BYTES_MAX, which the shape pass must not read
    runs = event(ALERT, b'"x":"%s"' % b"".join([b"1a"] * ((MAX_LINE_BYTES - 100) // 2)))
    rnd = random.Random(3)
    flows = [SURICATA_FLOW.replace(b"158.55.121.177", b"10.0.%d.%d" % (rnd.randrange(256), rnd.randrange(256)))
             for _ in range((1 << 18) // len(SURICATA_FLOW))]
    path = tmp_path / "runs.ndjson"
    path.write_bytes(b"\n".join(flows + [runs]) + b"\n")
    size = path.stat().st_size
    fd = os.open(path, os.O_RDONLY)
    tracemalloc.start()
    try:
        counters = IngestCounters()
        batch = parse_columns(eve.chunk_lines(fd, 0, size, size), counters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        os.close(fd)
    assert len(batch) == counters.records_ok == len(flows)
    assert counters.lines_consumed == len(flows) + 1
    assert peak < 8 << 20


def test_list_item_holding_a_newline_stays_one_line():
    # an item of a line list is one line whatever it holds; cut again at its newline, it
    # would count as two records
    counters = IngestCounters()
    batch = parse_columns([FLOW_LINE, FLOW_LINE + b"\n" + FLOW_LINE, FLOW_LINE], counters)
    assert counters.lines_consumed == 3
    assert len(batch) == counters.records_ok == 2
    assert counters.records_skipped_malformed == 1


def test_shape_path_matches_strict_on_criterion_9_corpus():
    corpus, valid, _ = criterion_9_corpus()
    # the corpus holds as many records as it was made with
    assert strict_parsed(corpus)[1].records_ok == valid
    assert_shape_path_matches_strict(corpus, line_by_line=False)


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
    assert_stream_blocks(lines, blocks)  # the MAX_LINE_BYTES edge cases end their blocks early
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
            want.count({r: 1})
    assert counters == block_counters == want


def spy(monkeypatch, name: str) -> list:
    """The argument of each call of eve.<name> from now on."""
    calls = []
    function = getattr(eve, name)

    def spied(arg):
        calls.append(arg)
        return function(arg)

    monkeypatch.setattr(eve, name, spied)
    return calls


def learning_line(line: bytes) -> bytes:
    """The line the shape cache learns line's shape from: its digit runs made 1, 2, 3 and so on."""
    runs = itertools.count(1)
    return re.sub(rb"[0-9]+", lambda run: b"%d" % next(runs), line)


def test_shape_is_learned_on_its_second_sighting(monkeypatch):
    # a shape is learned on its second sighting in one block, never across blocks
    fallen = spy(monkeypatch, "parse_flow_record")
    other, later = FLOW_LINE.replace(b"7", b"12"), FLOW_LINE.replace(b"3", b"4")
    for line in (FLOW_LINE, other):  # once in each of two blocks: not learned
        assert shape_parsed([line]) == strict_parsed([line])
    assert fallen == [FLOW_LINE, other]
    assert shape_parsed([FLOW_LINE, other]) == strict_parsed([FLOW_LINE, other])
    # twice in one block: learned once, and both lines decided
    assert fallen == [FLOW_LINE, other, learning_line(FLOW_LINE)]
    assert shape_parsed([later]) == strict_parsed([later])
    assert fallen == [FLOW_LINE, other, learning_line(FLOW_LINE)]  # a later block: decided


# a rule's metadata puts this alert four containers deep; with no \u escape its shape is learned
ALERT_WITH_METADATA = SURICATA_ALERT_WITH_METADATA.replace(b" \\u00e9", b"")


@pytest.mark.parametrize("line", [
    b'{"event_type":"flow","src_ip":"1.2.3.4","dest_ip":"5.6.7.8","flow":{"pkts_toserver":100,"pkts_toclient":0}}',
    SURICATA_FLOW, SURICATA_IPV6_FLOW, SURICATA_TLS, ALERT_WITH_METADATA,
], ids=["flowmat_gen", "suricata_flow", "suricata_ipv6", "suricata_tls", "alert_with_metadata"])
def test_repeated_shape_takes_one_json_loads_and_no_regex(line, monkeypatch):
    # each copy lowers one digit, which keeps every number's rule
    lines = [line] + [line.replace(b"%d" % k, b"%d" % (k - 1)) for k in range(2, 10)] * 20
    strict = strict_parsed(lines)
    loaded = spy(monkeypatch, "parse_flow_record")
    assert shape_parsed(lines) == strict
    assert loaded == [learning_line(line)]  # the line that teaches the shape


def teach(*lines: bytes) -> None:
    """Show the shape cache each line twice."""
    for line in lines:
        parse_columns([line, line], IngestCounters())


V4_COUNTS = b'"flow":{"pkts_toserver":%s,"pkts_toclient":3}'


# (name, a line whose shape the cache learns, a probe of that shape or near it, whether the cache
# decides the probe without parse_flow_record)
SHAPE_RULE_CASES = [
    # an integer part may not have a leading zero, but an octet or a fraction may
    ("count_leading_zero", FLOW_LINE, flow_line(counts=V4_COUNTS % b"07"), False),
    ("count_zero", FLOW_LINE, flow_line(counts=V4_COUNTS % b"0"), True),
    ("octets_leading_zeros", FLOW_LINE, flow_line(head=HEAD.replace(b"10.0.0.1", b"010.0.0.001")), True),
    ("member_leading_zero", flow_line(tail=b',"x":5'), flow_line(tail=b',"x":05'), False),
    ("negative_member_leading_zero", flow_line(tail=b',"x":-5'), flow_line(tail=b',"x":-05'), False),
    ("fraction_and_exponent_leading_zeros", flow_line(tail=b',"x":1.5e5'), flow_line(tail=b',"x":1.05e05'), True),
    ("exponent_sign_leading_zeros", flow_line(tail=b',"x":1.5e-5'), flow_line(tail=b',"x":0.0e-05'), True),
    # octets of at most 3 digits and at most 255; counts of at most 19 digits
    ("octet_255", FLOW_LINE, flow_line(head=HEAD.replace(b"10.0.0.1", b"10.0.0.255")), True),
    ("octet_256", FLOW_LINE, flow_line(head=HEAD.replace(b"10.0.0.1", b"10.0.0.256")), False),
    ("octet_four_digits", FLOW_LINE, flow_line(head=HEAD.replace(b"10.0.0.1", b"10.0.0.0001")), False),
    ("count_19_digits", FLOW_LINE, flow_line(counts=V4_COUNTS % b"9999999999999999999"), True),
    ("count_2_64_minus_1", FLOW_LINE, flow_line(counts=V4_COUNTS % b"18446744073709551615"), False),
    ("count_2_64", FLOW_LINE, flow_line(counts=V4_COUNTS % b"18446744073709551616"), False),
    # json.loads reads an integer part of _INT_DIGITS digits whatever the process's int digit
    # limit, and a longer one only within it; strings and fractions hold digit runs of any length
    ("integer_int_digits", event(ALERT, b'"x":5'), event(ALERT, b'"x":' + b"9" * eve._INT_DIGITS), True),
    ("integer_int_digits_plus_one", event(ALERT, b'"x":5'), event(ALERT, b'"x":' + b"9" * (eve._INT_DIGITS + 1)),
     False),
    ("string_int_digits", event(ALERT, b'"x":"5"'), event(ALERT, b'"x":"%s"' % (b"9" * eve._INT_DIGITS)), True),
    ("string_int_digits_plus_one", event(ALERT, b'"x":"5"'),
     event(ALERT, b'"x":"%s"' % (b"9" * (eve._INT_DIGITS + 1))), True),
    ("fraction_int_digits", event(ALERT, b'"x":5.5'), event(ALERT, b'"x":5.' + b"9" * eve._INT_DIGITS), True),
    ("fraction_int_digits_plus_one", event(ALERT, b'"x":5.5'),
     event(ALERT, b'"x":5.' + b"9" * (eve._INT_DIGITS + 1)), True),
    # a \u escape's hex digits break the shape: \u00e9 is valid, the cut \u1e5 is not
    ("u00e9_teaches_cut_u1e5", event(ALERT, b'"x":"\\u00e9"'), event(ALERT, b'"x":"\\u1e5"'), False),
    ("cut_u1e5_teaches_u00e9", event(ALERT, b'"x":"\\u1e5"'), event(ALERT, b'"x":"\\u00e9"'), False),
    # the hundredth run makes the synthetic line's escape \u100a, valid where \u1a is not
    ("u_escape_of_a_valid_synthetic_line", event(ALERT, b'"n":[%s]' % b",".join([b"1"] * 99), b'"x":"\\u100a"'),
     event(ALERT, b'"n":[%s]' % b",".join([b"1"] * 99), b'"x":"\\u1a"'), False),
    # an escaped backslash before "u" is no \u escape
    ("escaped_backslash_before_u", event(ALERT, b'"x":"C:\\\\u1"'), event(ALERT, b'"x":"C:\\\\u22"'), True),
    ("other_escapes", event(ALERT, b'"x":"\\/1\\""'), event(ALERT, b'"x":"\\/22\\""'), True),
    # a "-0" count is 0 and a "-11" count malformed, so the shape is never learned
    ("count_minus_zero", flow_line(counts=V4_COUNTS % b"-0"), flow_line(counts=V4_COUNTS % b"-0"), False),
    ("count_minus_11_after_minus_zero", flow_line(counts=V4_COUNTS % b"-0"), flow_line(counts=V4_COUNTS % b"-11"), False),
    # a shape first seen in malformed lines is learned from its own synthetic line
    ("first_seen_malformed", flow_line(counts=V4_COUNTS % b"07"), FLOW_LINE, True),
    # the marker byte in place of a digit
    ("marker_byte", FLOW_LINE, FLOW_LINE.replace(b"10.0.0.1", b"10.0.0.\x80"), False),
    # a line over _SHAPE_BYTES_MAX goes to parse_flow_record, however its digits keep their rules
    ("shape_bytes_max", flow_line(tail=b',"pad":"1"'), padded_to(eve._SHAPE_BYTES_MAX).replace(b"x", b"1"), True),
    ("shape_bytes_max_plus_one", flow_line(tail=b',"pad":"1"'),
     padded_to(eve._SHAPE_BYTES_MAX + 1).replace(b"x", b"1"), False),
    ("integer_4300_digits", event(ALERT, b'"x":5'), event(ALERT, b'"x":' + b"9" * 4300), False),
    ("integer_4301_digits", event(ALERT, b'"x":5'), event(ALERT, b'"x":' + b"9" * 4301), False),
    ("string_4301_digits", event(ALERT, b'"x":"5"'), event(ALERT, b'"x":"' + b"9" * 4301 + b'"'), False),
    ("fraction_4301_digits", event(ALERT, b'"x":5.5'), event(ALERT, b'"x":5.' + b"9" * 4301), False),
    ("max_line_bytes", flow_line(tail=b',"pad":"1"'), padded_to(MAX_LINE_BYTES).replace(b"x", b"1"), False),
    ("max_line_bytes_plus_one", flow_line(tail=b',"pad":"1"'), padded_to(MAX_LINE_BYTES + 1).replace(b"x", b"1"), False),
    ("newline_in_line", event(ALERT, b'"x":1'), event(ALERT, b'"x":\n1'), False),
]


@pytest.mark.parametrize("taught, probe, decided", [case[1:] for case in SHAPE_RULE_CASES],
                         ids=[case[0] for case in SHAPE_RULE_CASES])
def test_shape_cache_decides_a_line_only_when_its_digits_keep_their_rules(taught, probe, decided,
                                                                           monkeypatch):
    teach(taught)
    fallen = spy(monkeypatch, "parse_flow_record")
    assert shape_parsed([probe]) == strict_parsed([probe])
    assert fallen == ([] if decided else [probe])


def alert_value(value: bytes) -> bytes:
    return event(ALERT, b'"x":"%s"' % value)


def with_src(address: bytes) -> bytes:
    return flow_line(head=HEAD.replace(b"10.0.0.1", address))


def with_dest(address: bytes) -> bytes:
    return flow_line(head=HEAD.replace(b"10.0.0.2", address))


TLS_HASH = b"6734f37431670b3ab4292b8f60f29984"
# a TLS event cut inside its hash
TLS_CUT = SURICATA_TLS[:SURICATA_TLS.index(TLS_HASH) + 20]
V6_SRC = b"2001:db8:e4f1:3531::7db3"

# (name, two lines that teach one collapsed shape, a probe, whether the cache
# decides the probe without parse_flow_record): hostile string values
COLLAPSE_CASES = [
    ("letters", alert_value(b"ab"), alert_value(b"cd"), alert_value(b"efg"), True),
    ("digits_in_value", alert_value(b"a1"), alert_value(b"b22"), alert_value(b"c333"), True),
    ("timestamps", alert_value(b"2024-09-18T00:27:39.721839+0000"),
     alert_value(b"2024-09-18T20:43:15.467517+0000"), alert_value(b"2025-01-01T00:00:00.000001+0000"),
     True),
    ("control_byte", alert_value(b"ab"), alert_value(b"cd"), alert_value(b"a\x01b"), False),
    ("escaped_quote", alert_value(b"ab"), alert_value(b"cd"), alert_value(b'a\\"b'), False),
    ("u_escape", alert_value(b"ab"), alert_value(b"cd"), alert_value(b"\\u0061b"), False),
    ("space_after_colon", event(ALERT, b'"x": "ab"'), event(ALERT, b'"x": "cd"'),
     event(ALERT, b'"x": "ef"'), False),
    ("nested_event_type", event(ALERT, b'"x":{"event_type":"ab"}'),
     event(ALERT, b'"x":{"event_type":"cd"}'), event(ALERT, b'"x":{"event_type":"ef"}'), False),
    ("event_type", event(b'"event_type":"ab"'), event(b'"event_type":"cd"'),
     event(b'"event_type":"ef"'), False),
    ("string_in_array", event(ALERT, b'"x":["ab"]'), event(ALERT, b'"x":["cd"]'),
     event(ALERT, b'"x":["ef"]'), False),
    ("ja3_hash", SURICATA_TLS, SURICATA_TLS.replace(TLS_HASH, b"e7d705a3286e19ea42f587b344ee6865"),
     SURICATA_TLS.replace(TLS_HASH, b"a0e9f5d64349fb13191bc781f81f42e1"), True),
    ("cut_inside_hash", TLS_CUT, TLS_CUT.replace(TLS_HASH[:12], b"e7d705a3286e"),
     TLS_CUT.replace(TLS_HASH[:12], b"a0e9f5d64349"), False),
    ("record_beside_hash", flow_line(tail=b',"hash":"%s"' % TLS_HASH),
     flow_line(tail=b',"hash":"e7d705a3286e19ea42f587b344ee6865"'),
     flow_line(head=HEAD.replace(b"10.0.0.1", b"192.168.7.1"), tail=b',"hash":"a0e9f5d64349fb"'), True),
    ("ipv6_flow", SURICATA_IPV6_FLOW, SURICATA_IPV6_FLOW.replace(V6_SRC, b"fe80::1"),
     SURICATA_IPV6_FLOW.replace(V6_SRC, b"2001:db8::ab:7"), True),
    ("ipv6_dest_beside_ipv4_src", with_dest(b"2001:db8::2"), with_dest(b"fe80::2"),
     with_dest(b"::ffff:a00:2"), True),
    ("src_ip_colon", with_src(b":"), with_src(b"::1"), with_src(b"fe80::1"), True),
    ("src_ip_trailing_space", with_src(b"1.2.3.4 "), with_src(b"5.6.7.8 "), with_src(b"9.9.9.9 "),
     False),
    ("src_ip_empty", with_src(b""), with_src(b""), with_src(b""), False),
    ("duplicate_src_ip_collapses", flow_line(tail=b',"src_ip":"ab"'), flow_line(tail=b',"src_ip":"cd"'),
     flow_line(tail=b',"src_ip":"ef"'), False),
    ("duplicate_src_ip_with_colon", flow_line(tail=b',"src_ip":"::1"'),
     flow_line(tail=b',"src_ip":"fe80::2"'), flow_line(tail=b',"src_ip":"ab::3"'), True),
]


@pytest.mark.parametrize("first, second, probe, decided", [case[1:] for case in COLLAPSE_CASES],
                         ids=[case[0] for case in COLLAPSE_CASES])
def test_collapsed_shape_decides_a_line_only_when_its_values_collapse(first, second, probe, decided,
                                                                      monkeypatch):
    assert_shape_path_matches_strict([first, second, probe])
    eve._SHAPES = eve._ShapeCache()  # the empty_shape_cache fixture restores it
    assert shape_parsed([first, second]) == strict_parsed([first, second])
    fallen = spy(monkeypatch, "parse_flow_record")
    assert shape_parsed([probe]) == strict_parsed([probe])
    assert fallen == ([] if decided else [probe])


def test_two_workers_give_every_suricata_line_its_outcome(monkeypatch):
    # alternate blocks go to two fresh caches, as the chunks of a file go to two workers
    lines = suricata_lines(12_000, seed=5)
    blocks = [lines[i:i + shard.STREAM_BLOCK_LINES] for i in range(0, len(lines), shard.STREAM_BLOCK_LINES)]
    caches = [eve._ShapeCache(), eve._ShapeCache()]
    fallen = spy(monkeypatch, "parse_flow_record")
    late_lines = late_fallen = 0
    for k, block in enumerate(blocks):
        monkeypatch.setattr(eve, "_SHAPES", caches[k % 2])
        before = len(fallen)
        assert shape_parsed(block) == strict_parsed(block)
        if k >= 4:  # each cache has learned from two blocks
            late_lines += len(block)
            late_fallen += len(fallen) - before
    assert late_fallen < 0.05 * late_lines


@pytest.mark.parametrize("config", [GenConfig(n_flows=4_000, seed=3),
                                    GenConfig(n_flows=4_000, geometric_mean=65536, split=0.5, seed=3)],
                         ids=["uniform", "elephant"])
def test_collapse_pass_never_runs_on_flowmat_gen_lines_after_the_first_block(config, monkeypatch):
    lines = list(generate(config))
    blocks = [lines[i:i + shard.STREAM_BLOCK_LINES] for i in range(0, len(lines), shard.STREAM_BLOCK_LINES)]
    assert shape_parsed(blocks[0]) == strict_parsed(blocks[0])
    collapses = spy(monkeypatch, "_collapse")
    for block in blocks[1:]:
        assert shape_parsed(block) == strict_parsed(block)
    assert collapses == []


def test_a_line_holding_a_newline_is_decided_alone(monkeypatch):
    # split at its newline, the first line would take the next line's place among the shapes
    alert, other = event(ALERT), event(ALERT, b'"y":2')
    teach(alert, FLOW_LINE)
    lines = [alert + b"\n" + FLOW_LINE, other]
    assert shape_parsed(lines) == strict_parsed(lines)


def test_shape_cache_learns_up_to_its_limit(monkeypatch):
    monkeypatch.setattr(eve, "_SHAPES_MAX", 3)
    shapes = [event(ALERT, b'"%s":1' % key) for key in (b"a", b"b", b"c", b"d")]
    teach(*shapes)  # the third shape fills the cache; the fourth is not learned
    fallen = spy(monkeypatch, "parse_flow_record")
    assert shape_parsed(shapes) == strict_parsed(shapes)
    assert fallen == shapes[3:]


def test_shape_cache_does_not_learn_long_shapes(monkeypatch):
    short = event(ALERT, b'"x":"%s"' % (b"y" * (eve._SHAPE_BYTES_MAX - 29)))
    long = event(ALERT, b'"x":"%s"' % (b"y" * (eve._SHAPE_BYTES_MAX - 28)))
    assert (len(short), len(long)) == (eve._SHAPE_BYTES_MAX, eve._SHAPE_BYTES_MAX + 1)
    teach(short, long)
    fallen = spy(monkeypatch, "parse_flow_record")
    assert shape_parsed([short, long]) == strict_parsed([short, long])
    assert fallen == [long]


READ_KEYS = ["event_type", "src_ip", "dest_ip", "flow", "pkts_toserver", "pkts_toclient"]


def _quoted(text: str) -> str:
    return '"' + text + '"'


def _obj(members, comma=",", colon=":") -> str:
    return "{" + comma.join(k + colon + v for k, v in members) + "}"


# Valid compact pieces: a line built only from these is valid JSON as Suricata writes it.
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

# Pieces that may break the compact form, the JSON, or both.
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
def test_shape_path_matches_strict_on_generated_lines(line):
    assert_shape_path_matches_strict([line])


def _array(items) -> str:
    return "[" + ",".join(items) + "]"


def json_values(depth: int, scalar, key):
    """Values with scalar leaves in at most depth nested arrays and objects, with key keys."""
    value = scalar
    for _ in range(depth):
        value = st.one_of(scalar, st.lists(value, max_size=3).map(_array),
                          st.lists(st.tuples(key, value), max_size=3).map(_obj))
    return value


ESCAPED_STRING = st.text(max_size=6).map(json.dumps)  # ASCII, with escapes
NESTED_LEAF = st.one_of(COMPACT_SCALAR, ESCAPED_STRING)
NESTED_KEY = st.one_of(COMPACT_STRING, ESCAPED_STRING)
# member values that keep a line within DEPTH, at the top level and in its flow object
NESTED = json_values(DEPTH - 1, NESTED_LEAF, NESTED_KEY)
NESTED_OTHERS = st.lists(st.tuples(COMPACT_KEY, NESTED), max_size=2)
NESTED_FLOW_OTHERS = st.lists(
    st.tuples(COMPACT_KEY, json_values(DEPTH - 2, NESTED_LEAF, NESTED_KEY)), max_size=2)


@st.composite
def counts_objects(draw):
    """Valid flow objects: the two counts in Suricata's order among other members."""
    flow = draw(NESTED_FLOW_OTHERS) + [('"pkts_toserver"', draw(VALID_COUNT))]
    flow += draw(NESTED_FLOW_OTHERS) + [('"pkts_toclient"', draw(VALID_COUNT))]
    return _obj(flow + draw(NESTED_FLOW_OTHERS))


@st.composite
def compact_flow_lines(draw):
    """Valid compact flow lines in Suricata's key order: all are records."""
    members = draw(NESTED_OTHERS) + [('"event_type"', '"flow"')]
    members += draw(NESTED_OTHERS) + [('"src_ip"', draw(QUAD))]
    members += draw(NESTED_OTHERS) + [('"dest_ip"', draw(QUAD))]
    members += draw(NESTED_OTHERS) + [('"flow"', draw(counts_objects()))] + draw(NESTED_OTHERS)
    return _obj(members).encode()


# a single-byte mutation: (op, where, byte)
MUTATION = (st.sampled_from(["flip", "insert", "delete"]), st.integers(0, 1 << 16), st.integers(1, 255))


def mutate(line: bytes, op: str, where: int, byte: int) -> bytes:
    i = where % (len(line) + (op == "insert"))
    if op == "flip":
        return line[:i] + bytes([line[i] ^ byte]) + line[i + 1 :]
    if op == "insert":
        return line[:i] + bytes([byte]) + line[i:]
    return line[:i] + line[i + 1 :]


@settings(max_examples=1000, deadline=None)
@given(compact_flow_lines(), *MUTATION)
# inserts a raw 0x80 byte, the digit-run marker, before a count: learning the
# shape of that non-ASCII line would read it as one more run
@example(line=b'{"event_type":"flow","src_ip":"0.0.0.0","dest_ip":"0.0.0.0","flow":{"":"","":"",'
              b'"pkts_toserver":0,"":"","":"","pkts_toclient":0}}', op="insert", where=126, byte=128)
def test_shape_path_matches_strict_on_mutations(line, op, where, byte):
    assert isinstance(parse_flow_record(line), FlowRecord)
    assert_shape_path_matches_strict([line, mutate(line, op, where, byte)])


# --- non-flow events and IPv6 flows on generated lines ----------------------

# member values one container deeper
ODD_NESTED = json_values(DEPTH, st.one_of(SCALAR, COMPACT_SCALAR), st.one_of(KEY, STRING))
EVENT_TYPE = COMPACT_STRING.filter(lambda t: t != '"flow"')
ODD_EVENT_TYPE = st.sampled_from(
    ['"flow"', '"\\u0066low"', '"\\u0061lert"', '"al\\"ert"', "null", "1", '["dns"]', '"dns" '])
V6_ADDRESS = st.sampled_from(['"::1"', '"2001:db8::1"', '"fe80::1%eth0"', '"::ffff:1.2.3.4"', '":"'])
ODD_ADDRESS = st.one_of(
    IP, st.sampled_from(['"fe80\\u003a\\u003a1"', '"\\u003a"', '"::\\u0031"', '"::1\\x"', '":\\"', "[]"]))


@st.composite
def skip_lines(draw, kind: str, wild: bool = True):
    """Non-flow events (kind "event") or flow events with an IPv6 address (kind "ipv6").

    Tame, every line is a skip of its kind. Wild, each aspect is, one time
    in six, one that may not keep it so: the event type, the addresses, the other
    members (duplicate or escaped read keys, values past DEPTH, NaN,
    long integers, bad strings), key order, separators and surrounding
    whitespace.
    """

    def pick(tame, odd):
        return draw(odd if wild and draw(st.integers(0, 5)) == 0 else tame)

    rnd = draw(st.randoms(use_true_random=False))
    if kind == "event":
        read = [('"event_type"', pick(EVENT_TYPE, ODD_EVENT_TYPE))]
    else:
        addresses = [draw(V6_ADDRESS), draw(st.one_of(V6_ADDRESS, QUAD))]
        rnd.shuffle(addresses)
        read = [('"event_type"', pick(st.just('"flow"'), ODD_EVENT_TYPE)),
                ('"src_ip"', pick(st.just(addresses[0]), ODD_ADDRESS)),
                ('"dest_ip"', pick(st.just(addresses[1]), ODD_ADDRESS)),
                ('"flow"', pick(counts_objects(), ODD_NESTED))]
    names = {key for key, _ in read}
    members = pick(st.lists(st.tuples(COMPACT_STRING.filter(lambda k: k not in names), NESTED),
                            max_size=4),
                   st.lists(st.tuples(st.one_of(KEY, STRING), ODD_NESTED), max_size=4))
    # the read members keep their order, at random places among the others
    places = sorted(rnd.randrange(len(members) + 1) for _ in read)
    for place, member in reversed(list(zip(places, read))):
        members.insert(place, member)
    if pick(st.just(False), st.just(True)):
        rnd.shuffle(members)
    comma, colon = pick(st.just((",", ":")), st.sampled_from([(", ", ": "), (",", " :"), (",\n", ":")]))
    lead, trail = pick(st.just(""), SPACE), pick(st.just(""), SPACE)
    return (lead + _obj(members, comma, colon) + trail).encode()


@settings(max_examples=1000, deadline=None)
@given(st.one_of(skip_lines("event"), skip_lines("ipv6")))
def test_skip_clauses_match_strict_on_generated_lines(line):
    assert_shape_path_matches_strict([line])


@settings(max_examples=1000, deadline=None)
@given(st.one_of(skip_lines("event", wild=False), skip_lines("ipv6", wild=False)), *MUTATION)
def test_skip_clauses_match_strict_on_mutations(line, op, where, byte):
    assert parse_flow_record(line) in (Skip.NON_FLOW, Skip.IPV6)
    assert_shape_path_matches_strict([line, mutate(line, op, where, byte)])


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


def test_stream_holds_an_overlong_line_only_up_to_its_cut():
    # a 32 MiB line in 4 KiB pieces: the reader keeps about MAX_LINE_BYTES of it
    pieces = itertools.chain([b"{"], itertools.repeat(b"x" * 4096, 8192), [b"\n" + FLOW_LINE])

    class Stream:
        def read1(self, size):
            return next(pieces, b"")

    tracemalloc.start()
    try:
        lines = list(eve._bounded_lines(Stream()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(line) for line in lines] == [MAX_LINE_BYTES + 1, len(FLOW_LINE)]
    assert peak < 4 * MAX_LINE_BYTES


def test_open_source_missing_file(tmp_path):
    with pytest.raises(OSError, match="no_such_file"):
        open_source(str(tmp_path / "no_such_file"))


def test_socket_source_closed_without_iterating_leaves_no_path(tmp_path):
    path = tmp_path / "eve.sock"
    src = open_source(str(path), socket_mode=True)
    assert path.is_socket()
    src.close()
    assert not path.exists()
    src.close()  # a second close is harmless


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


def test_socket_line_arrives_before_its_peer_closes(tmp_path):
    path = str(tmp_path / "eve.sock")
    src = open_source(path, socket_mode=True)
    received = []
    arrived = threading.Event()

    def consume():
        for line in src:
            received.append(line)
            arrived.set()

    consumer = threading.Thread(target=consume)
    consumer.start()
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as peer:
            peer.connect(path)
            peer.sendall(FLOW_LINE + b"\n")
            in_time = arrived.wait(5)
    finally:
        src.close()
        consumer.join(timeout=5)
    assert in_time, "the line waited for more bytes or for its peer to close"
    assert not consumer.is_alive()
    assert received == [FLOW_LINE]


def test_socket_source_refuses_a_path_another_process_listens_on(tmp_path):
    path = str(tmp_path / "eve.sock")
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as live:
        live.bind(path)
        live.listen(1)
        live.settimeout(5)
        inode = os.stat(path).st_ino
        with pytest.raises(OSError, match="eve.sock") as info:
            open_source(path, socket_mode=True)
        assert info.value.filename == path
        assert os.stat(path).st_ino == inode
        live.accept()[0].close()  # the refused source's probe
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as peer:
            peer.connect(path)
            live.accept()[0].close()  # the path still leads to this listener


def test_socket_source_refuses_a_live_path_whose_backlog_is_full(tmp_path):
    path = str(tmp_path / "eve.sock")
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as live:
        live.bind(path)
        live.listen(0)
        queued = []
        try:
            while True:  # fill the backlog, so a blocking connect would wait
                peer = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                peer.setblocking(False)
                queued.append(peer)
                peer.connect(path)
        except BlockingIOError:
            pass
        try:
            with pytest.raises(OSError, match="eve.sock"):
                open_source(path, socket_mode=True)
        finally:
            for peer in queued:
                peer.close()


def test_socket_source_replaces_a_stale_socket(tmp_path):
    path = str(tmp_path / "eve.sock")
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as gone:
        gone.bind(path)  # closed without removing its path, as by a killed process
    src = open_source(path, socket_mode=True)
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as peer:
            peer.connect(path)  # a stale socket would refuse
    finally:
        src.close()
    assert not os.path.exists(path)


def test_socket_source_close_keeps_a_path_that_no_longer_holds_it(tmp_path):
    path = tmp_path / "eve.sock"
    src = open_source(str(path), socket_mode=True)
    path.unlink()
    path.write_bytes(b"someone else's")
    src.close()
    assert path.read_bytes() == b"someone else's"


def test_socket_source_bind_error_names_the_path(tmp_path):
    path = str(tmp_path / "missing" / "eve.sock")
    with pytest.raises(FileNotFoundError) as info:
        open_source(path, socket_mode=True)
    assert info.value.filename == path
