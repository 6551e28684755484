"""Ingest of newline-delimited Suricata EVE JSON into flow records.

Only ``event_type == "flow"`` events with IPv4 endpoints are kept; everything
else is counted and skipped so a long-running sensor survives log corruption,
mixed event streams, and IPv6 traffic it does not handle.

One classifier, ``_classify``, decides every line: it gives the line's
record as ten decimal fields (eight octets and two counts) or its ``Skip``.
Two compact clauses, each one compiled bytes regex, accept only compact
ASCII JSON whose shape makes the outcome certain:

* a flow event with its keys in Suricata's order, each address a strict
  dotted quad or an escape-free string holding ":", plain integer counts
  below 2^64 and no duplicate of any key the parser reads. With two quads
  its fields are the regex's ten groups; otherwise it is ``Skip.IPV6``;
* an event whose one top-level ``event_type`` is an escape-free string other
  than "flow": ``Skip.NON_FLOW``.

Both prove the whole line is valid JSON: values may nest up to
``_MAX_DEPTH`` containers, the top-level object included, and their strings
may hold escapes. Every other line goes through ``json.loads``
(``_parse_json``), which decides it alone, so every line gets the same
outcome from either path. ``parse_flow_record`` and ``parse_columns`` both
call the classifier; ``parse_columns`` turns lines into one column batch
without a FlowRecord per line.

Lines come from a stream (``_bounded_lines``) or, for a regular file cut into
byte chunks, from the lines that start inside one chunk (``chunk_lines``);
both apply the same rules to blank, over-long and unterminated lines.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import os
import re
import socket
import stat
import sys
import threading
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

MAX_LINE_BYTES = 1 << 20  # longer lines are malformed by contract
_READ_ON_BYTES = 1 << 16  # read size for a line that crosses a chunk's end

_U64_MAX = (1 << 64) - 1

# containers a line may nest, its top-level object included, for a compact
# clause to take it; deeper lines go to json.loads
_MAX_DEPTH = 3

# an escape-free JSON string body, so its bytes are its decoded text
_CHARS = rb'[^"\\\x00-\x1f]*+'
# the integer part is capped at 20 digits, far below the 4300 digits int() accepts
_NUMBER = rb"-?(?:0|[1-9][0-9]{0,19})(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"


class FlowRecord(NamedTuple):
    """One parsed EVE flow event. Addresses are 32-bit unsigned ints."""

    src_ip: int
    dest_ip: int
    pkts_toserver: int
    pkts_toclient: int


@dataclass(frozen=True)
class FlowColumns:
    """A batch of flow records as four parallel arrays, one element per record."""

    src: np.ndarray       # uint32
    dst: np.ndarray       # uint32
    toserver: np.ndarray  # uint64
    toclient: np.ndarray  # uint64

    def __len__(self) -> int:
        return len(self.src)


class Skip(enum.Enum):
    """Why a line did not produce a FlowRecord."""

    NON_FLOW = "non_flow"
    IPV6 = "ipv6"
    MALFORMED = "malformed"


@dataclass
class IngestCounters:
    records_ok: int = 0
    records_skipped_non_flow: int = 0
    records_skipped_ipv6: int = 0
    records_skipped_malformed: int = 0

    # parsed flows the windower refused: more packets than MAX_WINDOWS_PER_FLOW windows hold
    records_skipped_window_span: int = 0

    def count_skip(self, reason: Skip) -> None:
        """Count one skipped line; records are added a batch at a time."""
        if reason is Skip.NON_FLOW:
            self.records_skipped_non_flow += 1
        elif reason is Skip.IPV6:
            self.records_skipped_ipv6 += 1
        elif reason is Skip.MALFORMED:
            self.records_skipped_malformed += 1

    def refuse(self, records: int) -> None:
        """Move records the windower refused from records_ok to their own counter."""
        self.records_ok -= records
        self.records_skipped_window_span += records

    def add(self, other: IngestCounters) -> None:
        for name, value in dataclasses.asdict(other).items():
            setattr(self, name, getattr(self, name) + value)

    @property
    def lines_consumed(self) -> int:
        return sum(dataclasses.asdict(self).values())

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def parse_ipv4(text: str) -> int | None:
    """Dotted-quad string to a 32-bit int, or None if not strict IPv4."""
    parts = text.split(".")
    if len(parts) != 4:
        return None
    addr = 0
    for part in parts:
        # str.isdigit also accepts non-ASCII digits such as "²" and "١"
        if not (1 <= len(part) <= 3) or not (part.isascii() and part.isdigit()):
            return None
        octet = int(part)
        if octet > 255:
            return None
        addr = (addr << 8) | octet
    return addr


def _count(value) -> int | None:
    # bool is an int subclass; JSON true/false must not pass as counts
    if type(value) is not int or value < 0 or value > _U64_MAX:
        return None
    return value


def _json_value(depth: int) -> bytes:
    """A JSON value whose containers nest at most depth deep; its strings may hold escapes.

    A container holds one copy of the inner value: each member or item is
    followed by a comma that does not close the container, or by the close
    itself. So the pattern doubles per level, once for objects and once for
    arrays. Loops and string bodies are possessive, and no value can end
    early at a byte that may follow it, so a value has one parse and
    giving anything back could never match. Possessive quantifiers need
    Python 3.11.
    """
    string = rb'"%s(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})%s)*+"' % (_CHARS, _CHARS)
    scalar = string + rb"|" + _NUMBER + rb"|true|false|null"
    value = scalar
    for _ in range(depth):
        value = rb"%s|\{(?:%s:(?:%s)(?:,(?!\})|(?=\})))*+\}|\[(?:(?:%s)(?:,(?!\])|(?=\])))*+\]" % (
            scalar, string, value, value)
    return value


@functools.cache
def _flow_pattern() -> re.Pattern:
    """The flow clause's grammar, compiled on first use so imports stay cheap.

    event_type "flow", src_ip, dest_ip and flow come in that order, and flow
    is an object holding pkts_toserver before pkts_toclient as plain
    integers of at most 19 digits. Keys are escape-free, so a key's bytes
    are its decoded name, and other members may not reuse the read keys'
    names, so the last duplicate that ``json.loads`` keeps can never differ
    from the one captured. Other values are any JSON within ``_MAX_DEPTH``.
    An address is a strict dotted quad, whose four octets are groups, or an
    escape-free string holding ":". So a match with all eight octet groups
    set spells the record ``_parse_json`` gives, and one with an unset
    group is an IPv6 flow. Its loops are possessive, as no member a loop
    repeats can begin the literal that follows it. The octet alternatives
    are disjoint, so a quad has one parse and a line that fails after it
    is not retried once per way of splitting its digits.
    """
    member = rb'"(?!(?:event_type|src_ip|dest_ip|flow)")%s":(?:%s)' % (
        _CHARS, _json_value(_MAX_DEPTH - 1))
    inner = rb'"(?!pkts_to(?:server|client)")%s":(?:%s)' % (_CHARS, _json_value(_MAX_DEPTH - 2))
    octet = rb"(25[0-5]|2[0-4][0-9]|[01][0-9][0-9]|[0-9][0-9]?)"
    address = rb'"(?:%s|[^":\\\x00-\x1f]*+:%s)"' % (rb"\.".join([octet] * 4), _CHARS)
    count = rb"(0|[1-9][0-9]{0,18})"  # at most 19 digits, so below 2^64
    return re.compile(
        rb'\{(?:%(m)s,)*+"event_type":"flow",(?:%(m)s,)*+"src_ip":%(a)s,'
        rb'(?:%(m)s,)*+"dest_ip":%(a)s,(?:%(m)s,)*+'
        rb'"flow":\{(?:%(i)s,)*+"pkts_toserver":%(c)s,'
        rb'(?:%(i)s,)*+"pkts_toclient":%(c)s(?:,%(i)s)*+\}'
        rb"(?:,%(m)s)*+\}"
        % {b"m": member, b"i": inner, b"a": address, b"c": count}
    )


@functools.cache
def _non_flow_pattern() -> re.Pattern:
    """The non-flow clause's grammar: valid JSON whose one event_type is a string, not "flow".

    Top-level keys are escape-free, so a key's bytes are its name, and only
    the one event_type member may have that name. Its value is an
    escape-free string other than flow, so ``_parse_json`` reads it as is.
    Compiled on first use: a process that sees no line the flow clause
    rejects never pays for it.
    """
    member = rb'"(?!event_type")%s":(?:%s)' % (_CHARS, _json_value(_MAX_DEPTH - 1))
    return re.compile(
        rb'\{(?:%(m)s,)*+"event_type":"(?!flow")%(c)s"(?:,%(m)s)*+\}' % {b"m": member, b"c": _CHARS}
    )


def parse_flow_record(line: bytes) -> FlowRecord | Skip:
    """Parse one EVE JSON line. Never raises: bad input becomes a Skip."""
    fields = _classify(line)
    if isinstance(fields, Skip):
        return fields
    s1, s2, s3, s4, d1, d2, d3, d4, toserver, toclient = map(int, fields)
    return FlowRecord(
        s1 << 24 | s2 << 16 | s3 << 8 | s4, d1 << 24 | d2 << 16 | d3 << 8 | d4, toserver, toclient
    )


def _classify(line: bytes) -> tuple[bytes, ...] | Skip:
    """A line's record as ten decimal fields, eight octets and two counts, or its Skip.

    A line the flow clause matches gives its regex groups, or Skip.IPV6
    when an address is not a quad. A line it rejects goes to the non-flow
    clause. The clauses exclude each other, so this order only saves time.
    Every line neither decides goes through _parse_json, and a record it
    returns gives the same ten fields, formatted as b"%d".
    """
    if len(line) <= MAX_LINE_BYTES and line.isascii():
        match = _flow_pattern().fullmatch(line)
        if match is not None:
            fields = match.groups()
            # an address that is not a quad leaves its four octet groups unset
            return Skip.IPV6 if fields[0] is None or fields[4] is None else fields
        if _non_flow_pattern().fullmatch(line) is not None:
            return Skip.NON_FLOW
    rec = _parse_json(line)
    if isinstance(rec, Skip):
        return rec
    src, dst, toserver, toclient = rec
    return tuple(b"%d" % field for field in (
        src >> 24, src >> 16 & 255, src >> 8 & 255, src & 255,
        dst >> 24, dst >> 16 & 255, dst >> 8 & 255, dst & 255, toserver, toclient))


def _parse_json(line: bytes) -> FlowRecord | Skip:
    """The strict clause: ``json.loads`` and a walk of the fields it read."""
    if len(line) > MAX_LINE_BYTES:
        return Skip.MALFORMED
    try:
        doc = json.loads(line)
    except (ValueError, UnicodeDecodeError, RecursionError):  # RecursionError: deep nesting
        return Skip.MALFORMED
    if not isinstance(doc, dict):
        return Skip.MALFORMED
    if doc.get("event_type") != "flow":
        return Skip.NON_FLOW

    src = doc.get("src_ip")
    dst = doc.get("dest_ip")
    if not isinstance(src, str) or not isinstance(dst, str):
        return Skip.MALFORMED
    if ":" in src or ":" in dst:
        return Skip.IPV6
    src_addr = parse_ipv4(src)
    dst_addr = parse_ipv4(dst)
    if src_addr is None or dst_addr is None:
        return Skip.MALFORMED

    flow = doc.get("flow")
    if not isinstance(flow, dict):
        return Skip.MALFORMED
    toserver = _count(flow.get("pkts_toserver"))
    toclient = _count(flow.get("pkts_toclient"))
    if toserver is None or toclient is None:
        return Skip.MALFORMED

    return FlowRecord(src_addr, dst_addr, toserver, toclient)


def parse_columns(lines: Iterable[bytes], counters: IngestCounters) -> FlowColumns:
    """Parse lines into one column batch; counters track every line.

    The ten fields of each record (_classify) join one flat list, and the
    batch's columns come from one C parse of that list (_columns) and numpy
    shifts. Skips are counted line by line and records once the lines are
    drained, so the counters are exact when this returns.
    """
    fields: list = []
    for line in lines:
        result = _classify(line)
        if isinstance(result, Skip):
            counters.count_skip(result)
        else:
            fields += result
    batch = _columns(fields)
    counters.records_ok += len(batch)
    return batch


def _columns(fields: list) -> FlowColumns:
    """Columns of records given as ten decimal fields each: eight octets and two counts."""
    # np.fromstring silently saturates a number above 2^64 - 1 at 2^64 - 1.
    # It is exact here only because every field was validated before: the
    # flow clause takes at most 19 digits, and _count bounds every count
    # the JSON clause reads.
    table = np.fromstring(b",".join(fields), dtype=np.uint64, sep=",").reshape(-1, 10)
    src = table[:, 0] << 24 | table[:, 1] << 16 | table[:, 2] << 8 | table[:, 3]
    dst = table[:, 4] << 24 | table[:, 5] << 16 | table[:, 6] << 8 | table[:, 7]
    return FlowColumns(src.astype(np.uint32), dst.astype(np.uint32), table[:, 8], table[:, 9])


def _bounded_lines(stream: IO[bytes]) -> Iterator[bytes]:
    """Yield newline-delimited lines, capping per-line memory.

    A physical line longer than MAX_LINE_BYTES is yielded as a single
    over-long chunk (the parser rejects it) and its remainder is discarded.
    """
    limit = MAX_LINE_BYTES + 1
    while True:
        chunk = stream.readline(limit)
        if not chunk:
            return
        if chunk.endswith(b"\n"):
            line = chunk[:-1]
            if line:
                yield line
            continue
        if len(chunk) < limit:
            # EOF without trailing newline
            yield chunk
            return
        # over-long line: drain the rest of it
        while True:
            rest = stream.readline(limit)
            if not rest or rest.endswith(b"\n"):
                break
        yield chunk


def chunk_lines(fd: int, start: int, stop: int, size: int) -> list[bytes]:
    """The lines that start in bytes [start, stop) of a file read up to size.

    A line starts at byte 0 or after a newline, so each line of the file
    belongs to exactly one chunk, and the lines of all chunks in order are
    what _bounded_lines yields for the first size bytes: blank lines are
    dropped, a line over MAX_LINE_BYTES becomes its first MAX_LINE_BYTES + 1
    bytes, and the last line may lack its newline. The line that crosses
    stop is read on in pieces of _READ_ON_BYTES, only until its end or until
    it is over-long; a chunk that lies inside one line owns nothing. Reads
    use os.pread, so chunks can be read from one descriptor in any order.
    """
    lead = 1 if start else 0  # the byte before start says whether a line starts at start
    data = os.pread(fd, stop - start + lead, start - lead)
    offset = start - lead + len(data)
    lines = data.split(b"\n")
    del data
    if lead:
        if len(lines) == 1:
            return []
        del lines[0]  # the end of a line that started before start
    tail = [lines.pop()]  # empty, or the start of the line that crosses stop
    held = len(tail[0])
    while tail[0] and held <= MAX_LINE_BYTES and offset < size:
        piece = os.pread(fd, min(_READ_ON_BYTES, size - offset), offset)
        end = piece.find(b"\n")
        if end >= 0:
            tail.append(piece[:end])
            break
        if not piece:
            break  # the file shrank
        tail.append(piece)
        held += len(piece)
        offset += len(piece)
    lines.append(b"".join(tail))
    limit = MAX_LINE_BYTES
    return [line if len(line) <= limit else line[: limit + 1] for line in lines if line]


class SocketLineSource:
    """Listening unix stream socket yielding lines from successive peers.

    Accepts one connection at a time and re-listens after the peer
    disconnects, until close() is called. close() also removes the socket
    file, whether or not the source was ever iterated.
    """

    def __init__(self, path: str):
        self.path = path
        if os.path.exists(path):
            if not stat.S_ISSOCK(os.stat(path).st_mode):
                raise OSError(f"refusing to replace non-socket path: {path}")
            os.unlink(path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._listener.bind(path)
            self._listener.listen(1)
        except OSError:
            self._listener.close()
            raise
        # closing a socket does not wake a blocked accept(); poll instead
        self._listener.settimeout(0.2)
        self._closed = threading.Event()

    def close(self) -> None:
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __iter__(self) -> Iterator[bytes]:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            conn.settimeout(None)
            with conn, conn.makefile("rb") as stream:
                yield from _bounded_lines(stream)


class FileLineSource:
    """Lines of a file or stdin. size is a regular file's size when opened, else None.

    A source with a size is read in byte chunks up to it (pipeline.run_ingest).
    stdin has none, even when redirected from a file, and is read as a stream.
    """

    def __init__(self, stream: IO[bytes], owns: bool):
        self._stream = stream
        self._owns = owns
        self.size = None
        if owns:
            info = os.fstat(stream.fileno())
            if stat.S_ISREG(info.st_mode):
                self.size = info.st_size

    def fileno(self) -> int:
        return self._stream.fileno()

    def close(self) -> None:
        if self._owns:
            self._stream.close()

    def __iter__(self) -> Iterator[bytes]:
        return _bounded_lines(self._stream)


def open_source(spec: str, *, socket_mode: bool = False):
    """Open an EVE line source: a file path, "-" for stdin, or a unix socket.

    Returns an iterable of line byte strings with a close() method.
    Raises OSError naming the path if it cannot be opened.
    """
    if socket_mode:
        return SocketLineSource(spec)
    if spec == "-":
        return FileLineSource(sys.stdin.buffer, owns=False)
    try:
        stream = open(spec, "rb")
    except OSError as exc:
        raise OSError(f"cannot open input {spec!r}: {exc}") from exc
    return FileLineSource(stream, owns=True)
