"""Ingest of newline-delimited Suricata EVE JSON into flow records.

Only ``event_type == "flow"`` events with IPv4 endpoints are kept; everything
else is counted and skipped so a long-running sensor survives log corruption,
mixed event streams, and IPv6 traffic it does not handle.

Every line gets the outcome ``parse_flow_record`` gives it: ``json.loads``
and a walk of the fields it read, giving a record of eight octets and two
counts, or a ``Skip``.

``parse_columns`` reaches the same outcome faster for lines of a shape it
has seen before. A line's shape is its bytes with each run of digits as one
marker byte, and a per-process cache (``_ShapeCache``) holds the shapes it
has learned. Numpy passes over one block of lines give every line's shape
and digit runs, and a shape that occurs twice in the block is learned from
one ``parse_flow_record`` of a line of that shape: its skip, or which runs
are the record's octets and counts. A line of at most 4 KiB of a learned
shape whose digit runs keep their rules (no leading zero in a number's
integer part, octets up to 255, counts of at most 19 digits) gets the
shape's outcome with no ``json.loads``.

Hex letters give an IPv6 address or a TLS hash a shape of its own, so a
line its shape leaves undecided is looked up once more by a collapsed
shape, in which most string values are one marker byte (``_collapse``).
Every other line goes to ``parse_flow_record``. The two lookups and
``parse_flow_record`` each write the kind of outcome of the lines they
decide into one array per block, which is counted once
(``_ShapeCache.parse``).

Lines come from a stream (``_bounded_lines``) or, for a regular file cut into
byte chunks, from the lines that start inside one chunk (``chunk_lines``);
both apply the same rules to blank, over-long and unterminated lines. The
caller cuts them into blocks (``flowmat.shard``), and ``parse_columns``
parses one block.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import errno
import itertools
import json
import os
import re
import socket
import stat
import sys
from dataclasses import dataclass
from typing import IO, Iterator, NamedTuple

import numpy as np

MAX_LINE_BYTES = 1 << 20  # longer lines are malformed by contract
_READ_ON_BYTES = 1 << 16  # read size for a line that crosses a chunk's end

_U64_MAX = (1 << 64) - 1

# The shape cache (_ShapeCache). A shape's digit runs become this byte, which
# is not ASCII, so a line holding it is never decided by its shape.
_MARKER = 0x80
# A collapsed string value (_collapse) is one byte, _MARKER plus the class of
# its greatest byte, 1 or 2: each byte's class in _CLASSES is 0 for a digit,
# _MARKER or ".", 1 for any other byte, 2 for ":" and 3 for a control byte.
# A learning line spells the two collapsed values "x" and ":" (_EXPANDED).
_CLASSES = b"\3" * 32 + b"\1" * 14 + b"\0\1" + b"\0" * 10 + b"\2" + b"\1" * 69 + b"\0" + b"\1" * 127
_EXPANDED = bytes.maketrans(bytes([_MARKER + 1, _MARKER + 2]), b"x:")
_SHAPES_MAX = 1 << 10     # shapes learned per process
# longer lines go to parse_flow_record, so a block's shape pass grows with its
# other lines' bytes, and the learned shapes hold at most 4 MiB
_SHAPE_BYTES_MAX = 1 << 12
_UNSEEN = -2              # the entry number of a shape the cache has not met
# json.loads reads an integer part this long whatever the process's int digit
# limit: sys.set_int_max_str_digits takes no lower limit but 0, none at all
_INT_DIGITS = sys.int_info.str_digits_check_threshold
_COUNT_DIGITS = 19  # so a count is below 2^64
_SLOT_DIGITS = np.array([3] * 8 + [_COUNT_DIGITS] * 2)  # most digits of each octet and count

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

    def count(self, outcomes: dict[Skip | None, int]) -> None:
        """Add lines by their outcome: None for a record, else their Skip."""
        for outcome, lines in outcomes.items():
            name = "records_ok" if outcome is None else f"records_skipped_{outcome.value}"
            setattr(self, name, getattr(self, name) + lines)

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


def _fields(rec: FlowRecord) -> tuple[int, ...]:
    """A record's ten fields: the octets of its two addresses, then its two counts."""
    src, dst, toserver, toclient = rec
    return (src >> 24, src >> 16 & 255, src >> 8 & 255, src & 255,
            dst >> 24, dst >> 16 & 255, dst >> 8 & 255, dst & 255, toserver, toclient)


def parse_flow_record(line: bytes) -> FlowRecord | Skip:
    """Parse one EVE JSON line. Never raises: bad input becomes a Skip.

    It is ``json.loads`` and a walk of the fields it read.
    """
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


def parse_columns(lines: list[bytes], counters: IngestCounters) -> FlowColumns:
    """Parse one block of lines into one column batch, adding every line to counters.

    The process's shape cache (_SHAPES) decides the lines whose shapes it
    has learned, and parse_flow_record the others. The cache gives a line
    the outcome parse_flow_record gives it, and records keep the order of
    their lines, so the batch and the counters are the same whichever lines
    the cache decides. The cache counts the block, records included, once
    each of its lines has an outcome. The block is parsed as one buffer, so
    its callers bound it: shard.CHUNK_BYTES of lines plus one line, which
    may be over-long.
    """
    return _SHAPES.parse(lines, counters)


def _record_columns(table: np.ndarray) -> FlowColumns:
    """Columns of records given as rows of ten uint64: eight octets and two counts.

    Each address is its four octets read as one big-endian uint32.
    """
    quads = np.asarray(table[:, :8].reshape(-1, 2, 4).transpose(1, 0, 2), np.uint8, order="C")
    src, dst = quads.view(">u4").reshape(2, -1).astype(np.uint32)
    return FlowColumns(src, dst, table[:, 8], table[:, 9])


# A line's outcome as an index: a record (0) or a skip. A learned shape gives
# any but Skip.MALFORMED.
_KINDS = (None, Skip.NON_FLOW, Skip.IPV6, Skip.MALFORMED)


class _ShapeCache:
    """The line shapes one process has learned, and what every line of each gives.

    A line's shape is its bytes with each maximal run of ASCII digits
    replaced by the one byte _MARKER. Two ASCII lines of one shape differ only
    in their digits, and parse_flow_record gives both the same outcome when
    each digit run keeps the rule of its role: a number's integer part has no
    leading zero unless it is "0" and at most _INT_DIGITS digits; a record's
    octet has at most 3 digits and is at most 255; its count has at most
    _COUNT_DIGITS digits, so it is below 2^64. Other digits, in strings,
    fractions and exponents, do not matter, except the hex digits of a \\u
    escape, so a shape holding one is never learned.

    A shape that occurs at least twice in the block being parsed is learned
    from a line of the shape whose k-th digit run is the number k + 1
    (_learned): parse_flow_record of it gives the shape's skip, or which
    runs are a record's octets and counts. A shape whose such line is
    malformed is kept as one whose lines parse_flow_record decides one by
    one, since other digits may make them valid (a "-0" count is 0; "-11"
    is malformed). Learned shapes are kept for later blocks, at most
    _SHAPES_MAX of them; once the cache is full, the lines of new shapes go
    to parse_flow_record, as do lines over _SHAPE_BYTES_MAX bytes.

    The lines their shapes leave undecided are looked up again, in the
    same dict and by the same rules, by their collapsed shapes (_collapse),
    in which each string value that parse_flow_record reads only for its
    validity and for whether it holds a ":" is one marker byte that says
    which. Such bytes cannot make a line invalid, and as a src_ip or
    dest_ip they make a flow IPv6 if they hold a ":" and malformed if not.
    A learning line spells the markers "x" and ":", and the digit runs of
    collapsed values leave the runs an entry reads.
    """

    def __init__(self) -> None:
        self._ids: dict[bytes, int] = {}  # a shape's entry number, or -1: decided line by line
        # per learned shape, by entry number: its kind (an index into _KINDS),
        # where its flags start in integer_parts, and a record's eight octet
        # runs and two count runs; per digit run of each shape, in order,
        # whether it is a number's integer part
        self.kinds = np.zeros(0, np.intp)
        self.offsets = np.zeros(0, np.intp)
        self.slots = np.zeros((0, 10), np.intp)
        self.integer_parts = np.zeros(0, bool)

    def parse(self, lines: list[bytes], counters: IngestCounters) -> FlowColumns:
        """Parse a block of lines into one column batch, in line order, and count every line.

        The block is one buffer, each line between two newlines, and a line
        over _SHAPE_BYTES_MAX bytes an empty one. Its shapes and digit runs
        come from whole-buffer numpy passes, and a line's entry from one dict
        lookup. The lines that lookup leaves undecided have a second one, by
        their collapsed shapes. A line goes to parse_flow_record if it is
        over _SHAPE_BYTES_MAX bytes, is not ASCII or holds a newline, if
        neither of its shapes is learned, or if one of its digit runs breaks
        the rule of its role. Each of the three writes the kind of the
        lines it decides into kinds, and the block is counted once, from
        those kinds.
        """
        n = len(lines)
        lengths = np.fromiter(map(len, lines), np.int64, n)
        decidable = lengths <= _SHAPE_BYTES_MAX  # the lines a shape may decide
        lengths[~decidable] = 0
        shaped = [b"" if len(line) > _SHAPE_BYTES_MAX else line for line in lines]
        data, line_start = _buffer(shaped, lengths)
        raw = np.frombuffer(data, np.uint8)
        value = raw - 48  # a digit's value
        digit = value < 10
        edge = digit[1:] != digit[:-1]  # a run starts or stops at the next byte
        edges = np.flatnonzero(edge)
        edges += 1
        run_start, run_stop = edges[0::2], edges[1::2]
        keep = np.empty_like(digit)  # all but the second and later digits of each run
        keep[0] = True
        np.less_equal(digit[1:], edge, out=keep[1:])
        del digit, edge
        marked = raw.copy()
        marked[run_start] = _MARKER
        shapes = marked[keep].tobytes().split(b"\n")
        del keep, marked
        line_run = np.searchsorted(run_start, line_start)  # each line's first run, then all runs

        if len(shapes) != n + 2:  # a line holds a newline, which no line source yields
            decidable[:] = False
        if not data.isascii():
            decidable[np.searchsorted(line_start, np.flatnonzero(raw >= 0x80), "right") - 1] = False
        kinds = np.full(n, -1, np.intp)  # each line's kind, an index into _KINDS, or -1: undecided
        ids = np.full(n, -1)
        ids[decidable] = self._look_up(shapes[1:-1] if decidable.all() else
                                       [shapes[i + 1] for i in np.flatnonzero(decidable).tolist()])
        missed = np.flatnonzero(decidable & (ids < 0))
        tables = [self._decide(np.arange(n), ids, value, run_start, run_stop, line_run, kinds)]
        if len(missed):
            collapsed, dropped = _collapse([shapes[i + 1] for i in missed.tolist()])
            # the missed lines' runs but those in collapsed values, so that a
            # line's k-th run is the k-th one its collapsed shape's entry reads
            first, counts = line_run[missed], line_run[missed + 1] - line_run[missed]
            runs = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(len(dropped))
            runs = runs[~dropped]
            tables.append(self._decide(missed, self._look_up(collapsed), value, run_start[runs],
                                       run_stop[runs], np.searchsorted(runs, first), kinds))

        fields, fallen = [], []  # the records parse_flow_record gives, and their lines
        for i in np.flatnonzero(kinds < 0).tolist():
            outcome = parse_flow_record(lines[i])
            if isinstance(outcome, Skip):
                kinds[i] = _KINDS.index(outcome)
            else:
                kinds[i] = 0
                fields += _fields(outcome)
                fallen.append(i)
        if fallen:
            # numpy raises, and never saturates, on a field over 2^64 - 1
            tables.append((fallen, np.array(fields, np.uint64).reshape(-1, 10)))
        counters.count(dict(zip(_KINDS, np.bincount(kinds, minlength=len(_KINDS)).tolist())))
        record_lines, tables = zip(*tables)
        table = tables[0]
        if len(tables) > 1:
            table = np.concatenate(tables)[np.argsort(np.concatenate(record_lines))]
        return _record_columns(table)

    def _decide(self, lines, ids, value, run_start, run_stop, line_run, kinds):
        """Decide the lines ids gives entries; their record lines, in order, and those records.

        ids, run_start, run_stop and line_run describe the lines of the block
        that lines lists, and the records come as rows of ten uint64 for
        _record_columns. Each decided line's kind is written to kinds. A line
        whose digit runs break the rules of their roles is not decided: a
        number's integer part (_check_integer_parts), or a record's octet
        over 3 digits or 255 or count over _COUNT_DIGITS digits. The block is
        counted from kinds once every line has one (parse).
        """
        self._check_integer_parts(ids, value, run_start, run_stop, line_run)
        found = np.flatnonzero(ids >= 0)
        kind = self.kinds[ids[found]]
        records = found[kind == 0]
        runs = line_run[records, None] + self.slots[ids[records]]
        start, stop = run_start[runs], run_stop[runs]
        table = _numbers(value, start, stop, _COUNT_DIGITS)
        kept = (stop - start <= _SLOT_DIGITS).all(1) & (table[:, :8] <= 255).all(1)
        if not kept.all():
            kind[kind == 0] = np.where(kept, 0, -1)
            records, table = records[kept], table[kept]
        kinds[lines[found]] = kind
        return lines[records], table

    def _look_up(self, shapes: list[bytes]) -> np.ndarray:
        """The entry number of each of shapes, or -1; learns those that occur twice among them.

        shapes are those of one block's decidable lines only: a non-ASCII
        line's bytes may hold _MARKER, which _learned would read as one more
        digit run. A shape is learned while the cache is not full.
        """
        ids = np.fromiter(map(self._ids.get, shapes, itertools.repeat(_UNSEEN)), np.int64,
                          len(shapes))
        unseen = np.flatnonzero(ids == _UNSEEN)
        if len(unseen):
            new = [shapes[i] for i in unseen.tolist()]
            for shape, times in collections.Counter(new).items():
                if times > 1 and len(self._ids) < _SHAPES_MAX:
                    self._ids[shape] = self._add(shape)
            ids[unseen] = [self._ids.get(shape, -1) for shape in new]
        return ids

    def _add(self, shape: bytes) -> int:
        """Learn shape; its entry number, or -1 if parse_flow_record decides its lines."""
        learned = _learned(shape)
        if learned is None:
            return -1
        kind, slots, integer_parts = learned
        self.kinds = np.append(self.kinds, kind)
        self.offsets = np.append(self.offsets, len(self.integer_parts))
        self.slots = np.concatenate([self.slots, [slots]])
        self.integer_parts = np.append(self.integer_parts, integer_parts)
        return len(self.kinds) - 1

    def _check_integer_parts(self, ids, value, run_start, run_stop, line_run) -> None:
        """Send to parse_flow_record each decided line with an integer part breaking its rule.

        A run with a leading zero or too many digits is rare, and only such a
        run is looked up; ids of the lines where it is an integer part become -1.
        """
        length = run_stop - run_start
        suspect = np.flatnonzero((length > 1) & (value[run_start] == 0) | (length > _INT_DIGITS))
        line = np.searchsorted(line_run, suspect, "right") - 1
        decided = ids[line] >= 0
        suspect, line = suspect[decided], line[decided]
        broken = self.integer_parts[self.offsets[ids[line]] + suspect - line_run[line]]
        ids[line[broken]] = -1


_SHAPES = _ShapeCache()


def _learned(shape: bytes) -> tuple[int, np.ndarray, np.ndarray] | None:
    """What every line of shape gives if its digit runs keep their rules, or None.

    That is its kind, a record's octet and count runs, and which runs are a
    number's integer part, all read from the line of the shape whose k-th
    digit run is the number k + 1: parse_flow_record's record of it spells
    the numbers of the runs it read, and json.loads hands each integer part to
    parse_int or parse_float. None if that line is malformed or the shape
    holds a \\u escape, found escape-aware: a backslash not after another,
    an even number of backslashes after it, then "\\u".
    """
    parts = shape.split(bytes([_MARKER]))
    pieces = [b""] * (2 * len(parts) - 1)
    pieces[0::2] = parts
    pieces[1::2] = [b"%d" % k for k in range(1, len(parts))]
    line = b"".join(pieces).translate(_EXPANDED)
    outcome = parse_flow_record(line)
    if outcome is Skip.MALFORMED or re.search(rb"(?<!\\)(?:\\\\)*\\u", shape):
        return None
    integers, floats = [], []
    json.loads(line, parse_int=integers.append, parse_float=floats.append)
    integer_parts = np.zeros(len(parts) - 1, bool)
    integer_parts[[abs(int(text)) - 1 for text in integers]] = True
    integer_parts[[int(re.match(r"-?([0-9]+)", text)[1]) - 1 for text in floats]] = True
    if isinstance(outcome, Skip):
        return _KINDS.index(outcome), np.zeros(10, np.intp), integer_parts
    return 0, np.array(_fields(outcome), np.intp) - 1, integer_parts


def _buffer(lines: list[bytes], lengths: np.ndarray) -> tuple[bytes, np.ndarray]:
    """lines in one buffer, each between two newlines; where each starts, then the buffer's end."""
    line_start = np.ones(len(lines) + 1, np.int64)
    np.cumsum(lengths + 1, out=line_start[1:])
    line_start[1:] += 1
    return b"\n".join([b"", *lines, b""]), line_start


def _collapse(shapes: list[bytes]) -> tuple[list[bytes], np.ndarray]:
    """Each of shapes with its collapsible string values collapsed, and which of its runs they held.

    shapes are the shapes of ASCII lines. A string value collapses when it
    opens right after '":', its key is not event_type, it is not empty, it
    holds no control byte, and it holds a byte other than a digit or ".":
    its bytes become the one byte _MARKER + 2 if one of them is ":", else
    _MARKER + 1. A shape holding a backslash or an odd number of quotes
    collapses nothing; in any other the quotes pair in order. Returns the
    collapsed shapes and, for each _MARKER byte of shapes in order, whether
    it lay in a collapsed value.
    """
    data, line_start = _buffer(shapes, np.fromiter(map(len, shapes), np.int64, len(shapes)))
    text = np.frombuffer(data, np.uint8)
    quotes = np.flatnonzero(text == ord('"'))
    counts = np.diff(np.searchsorted(quotes, line_start))
    bad = counts % 2 == 1
    if b"\\" in data:
        bad[np.searchsorted(line_start, np.flatnonzero(text == ord("\\")), "right") - 1] = True
    if bad.any():
        quotes = quotes[np.repeat(~bad, counts)]
    opens, closes = quotes[0::2], quotes[1::2]
    # the quote before a value's '":' closes its key
    values = np.flatnonzero((text[opens - 1] == ord(":")) & (text[opens - 2] == ord('"')))
    start, stop = opens[values] + 1, closes[values]
    key_start, key_stop = opens[values - 1] + 1, closes[values - 1]
    named = np.flatnonzero(key_stop - key_start == len(b"event_type"))
    key = text[key_start[named, None] + np.arange(len(b"event_type"))]
    named = named[(key == np.frombuffer(b"event_type", np.uint8)).all(1)]
    classes = np.frombuffer(data.translate(_CLASSES), np.uint8)
    spans = np.empty(2 * len(start), np.int64)
    spans[0::2], spans[1::2] = start, stop
    kind = np.maximum.reduceat(classes, spans)[0::2]
    collapses = (stop > start) & ((kind == 1) | (kind == 2))
    collapses[named] = False
    start, stop = start[collapses], stop[collapses]
    # the collapsed values' bytes and the bytes between them, as a run of
    # alternate kept and dropped stretches
    bounds = np.empty(2 * len(start) + 2, np.int64)
    bounds[0], bounds[1:-1:2], bounds[2:-1:2], bounds[-1] = 0, start, stop, len(text)
    keep = np.repeat(np.arange(len(bounds) - 1) % 2 == 0, np.diff(bounds))
    dropped = ~keep[np.flatnonzero(text == _MARKER)]
    # each value's first byte becomes its marker
    keep[start] = True
    out = text.copy()
    out[start] = _MARKER + kind[collapses]
    return out[keep].tobytes().split(b"\n")[1:-1], dropped


def _numbers(value: np.ndarray, start: np.ndarray, stop: np.ndarray, width: int) -> np.ndarray:
    """The numbers the digit runs [start, stop) spell, for those of at most width digits."""
    width = min(width, int((stop - start).max(initial=0)))
    number = np.zeros(stop.shape, np.uint64)
    at = stop - width
    for _ in range(width):
        number *= 10
        number += value[at] * (at >= start)  # an index below 0 reads from the end, and adds 0
        at += 1
    return number


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


def _unlink_stale_socket(path: str) -> None:
    """Remove the socket at path if no process listens on it; else raise OSError naming it.

    The probe does not block: a listener whose backlog is full is in use too.
    """
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        probe.setblocking(False)
        try:
            probe.connect(path)
        except ConnectionRefusedError:
            os.unlink(path)
            return
        except FileNotFoundError:
            return
        except BlockingIOError:
            pass
        except OSError as exc:
            raise _naming(exc, path) from None
    raise OSError(errno.EADDRINUSE, "another process listens on this socket", path)


def _naming(exc: OSError, path: str) -> OSError:
    """exc with path as its filename; one without an errno keeps its own message."""
    if exc.errno is None:  # bind's "AF_UNIX path too long", for one
        return OSError(f"{exc}: {path!r}")
    return OSError(exc.errno, exc.strerror, path)


class SocketLineSource:
    """Listening unix stream socket yielding lines from successive peers.

    Accepts one connection at a time and re-listens after the peer
    disconnects, until close() is called. close() also removes the socket
    file, whether or not the source was ever iterated, unless the path no
    longer holds this socket. A socket left at the path by a process that
    has gone is replaced; one that another process still listens on is not.
    """

    def __init__(self, path: str):
        self.path = path
        if os.path.exists(path):
            if not stat.S_ISSOCK(os.stat(path).st_mode):
                raise OSError(f"refusing to replace non-socket path: {path}")
            _unlink_stale_socket(path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._listener.bind(path)
            self._listener.listen(1)
            info = os.lstat(path)
        except OSError as exc:
            self._listener.close()
            raise _naming(exc, path) from None
        self._inode = (info.st_dev, info.st_ino)

    def close(self) -> None:
        # closing a socket does not wake an accept() blocked on it; shutting it down does
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        try:
            info = os.lstat(self.path)
            if (info.st_dev, info.st_ino) == self._inode:
                os.unlink(self.path)
        except OSError:
            pass

    def __iter__(self) -> Iterator[bytes]:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener shut down or closed
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
