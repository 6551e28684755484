"""Parse and anonymize an input in chunks: a file's byte chunks or a stream's line blocks.

Every chunk goes through one function, _anonymized: its lines become one
column batch (eve.parse_columns), which the same process anonymizes.
Crypto-PAn is a pure function of the batch, and a forked child already holds
the key. The chunks' results come in input order. Each process keeps its
own cache of the line shapes it has learned (eve._ShapeCache), so a child
learns the shapes of the chunks it takes.

A stream (stdin, a socket, any other line iterable) is read into blocks in
this process, each ending at STREAM_BLOCK_LINES lines or at the first line
that takes it to CHUNK_BYTES (parse_stream). A regular file is cut into byte
chunks of CHUNK_BYTES, read up to the size it had when it was opened
(parse_file). A chunk owns the lines that start inside it
(eve.chunk_lines), so every line is parsed once, by the rules a streamed
read applies. A file of two or more chunks is handed to n children made with
os.fork, n being the number of CPUs this process may run on or the number of
chunks if that is smaller: child k takes chunks k, k + n, ... and sends each
one's result over its own pipe, in order, as one pickle after another. The
parent parses nothing; it takes the results in chunk order. A file of one
chunk is parsed in process and forks nothing. A child blocks once its pipe
is full, which bounds the results waiting for the parent to a pipe's worth
per child.

multiprocessing is not used: it starts helper threads and adds import time,
and a forked child already holds everything it needs. A child, and a process
parsing a stream, keeps the memory it frees for its next chunk or block
(_keep_freed_memory). A child ignores SIGINT and SIGTERM, which the parent
handles, and exits quietly on a broken pipe once the parent is gone. The
parent reaps every child with os.wait4, killing it first if it still runs
when the parent stops early, and appends that child's own peak RSS to
parse_file's peaks. A child whose pipe ends before or within a chunk's
pickle is a WorkerError naming its exit status.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import time
from typing import Iterable, Iterator, NoReturn

from flowmat.cryptopan import CryptoPan, anonymize_flows
from flowmat.eve import FlowColumns, IngestCounters, chunk_lines, parse_columns

CHUNK_BYTES = 1 << 18
# most lines per block of a stream, and so per anonymize_flows call, which
# deduplicates addresses per batch
STREAM_BLOCK_LINES = 512

# (batch, counters, (parse CPU seconds, anonymize CPU seconds)) of one chunk
Chunk = tuple[FlowColumns, IngestCounters, tuple[float, float]]

# a child ignores these; the parent stops on them and stops its children
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}

# glibc mallopt parameters: a child takes allocations below _MMAP_BYTES from
# its heap and keeps up to _TRIM_BYTES of freed heap (_keep_freed_memory)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_BYTES = 1 << 20
_TRIM_BYTES = 4 << 20


class WorkerError(RuntimeError):
    """A parse worker died before it sent all of its chunks."""


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


def parse_file(fd: int, size: int, anon: CryptoPan | None, peaks: list[int]) -> Iterator[Chunk]:
    """The result of each chunk of the first size bytes of fd, in file order."""
    chunk = CHUNK_BYTES
    n_chunks = -(-size // chunk)
    n = min(worker_count(), n_chunks) if size > chunk else 0

    def work(index: int) -> Chunk:
        start = index * chunk
        return _anonymized(chunk_lines(fd, start, min(start + chunk, size), size), anon)

    workers: list[_Worker] = []
    try:
        for k in range(n):
            workers.append(_Worker.start(work, range(k, n_chunks, n), workers))
        for i in range(n_chunks):
            yield workers[i % n].receive(i) if workers else work(i)
        for worker in workers:
            worker.finish()
    finally:
        for worker in workers:
            worker.stop()
            peaks.append(worker.peak_rss_bytes)


def parse_stream(lines: Iterable[bytes], anon: CryptoPan | None) -> Iterator[Chunk]:
    """The result of each block of lines, in order.

    A block is read whole before it is parsed. It ends at STREAM_BLOCK_LINES
    lines or at the first line that takes it to CHUNK_BYTES, whichever comes
    first, so like a file chunk it holds less than CHUNK_BYTES of lines plus
    one line, which may be over-long. The last block ends with the lines.
    """
    _keep_freed_memory()
    block: list[bytes] = []
    held = 0
    for line in lines:
        block.append(line)
        held += len(line)
        if len(block) == STREAM_BLOCK_LINES or held >= CHUNK_BYTES:
            yield _anonymized(block, anon)
            block, held = [], 0
    if block:
        yield _anonymized(block, anon)


def _anonymized(lines: list[bytes], anon: CryptoPan | None) -> Chunk:
    """The anonymized batch of lines, its counters, and its parse and anonymize CPU seconds."""
    start = time.process_time()
    counters = IngestCounters()
    batch = parse_columns(lines, counters)
    parsed = time.process_time()
    batch = anonymize_flows(anon, batch)
    return batch, counters, (parsed - start, time.process_time() - parsed)


class _Worker:
    """One forked child and the read end of its pipe, as the parent sees them."""

    def __init__(self, pid: int, pipe):
        self.pid = pid
        self.pipe = pipe
        self.exit_code: int | None = None
        self.peak_rss_bytes = 0  # the child's own, once it is reaped

    @classmethod
    def start(cls, parse, indices: range, siblings: list[_Worker]) -> _Worker:
        """Fork a child that sends parse(i) for each chunk index in indices."""
        read_fd, write_fd = os.pipe()
        # blocked across the fork, so the child cannot run the parent's handlers
        # for them before it ignores them
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            pid = os.fork()
        except OSError:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            # a sibling's pipe held open here would keep it writing after the parent is gone
            for sibling in siblings:
                os.close(sibling.pipe.fileno())
            _serve(parse, indices, write_fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(write_fd)
        return cls(pid, open(read_fd, "rb"))

    def receive(self, index: int) -> tuple:
        """The child's result for chunk index, the next one on its pipe."""
        try:
            return pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):  # the pipe ended before or within it
            pass
        raise WorkerError(f"parse worker {self.pid} {self._ended()} before sending chunk {index}")

    def finish(self) -> None:
        """Reap a child that sent all of its chunks; it must have exited with status 0."""
        if self.wait() != 0:
            raise WorkerError(f"parse worker {self.pid} {self._ended()} after its last chunk")

    def stop(self) -> None:
        if self.exit_code is None:
            os.kill(self.pid, signal.SIGKILL)
        self.pipe.close()
        self.wait()

    def wait(self) -> int:
        if self.exit_code is None:
            _, status, usage = os.wait4(self.pid, 0)
            self.exit_code = os.waitstatus_to_exitcode(status)
            self.peak_rss_bytes = usage.ru_maxrss * 1024
        return self.exit_code

    def _ended(self) -> str:
        code = self.wait()
        return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"


def _serve(parse, indices: range, write_fd: int) -> NoReturn:
    """The child: send parse(i) for each chunk index in indices, in order; never returns."""
    code = 1
    try:
        for signum in _STOP_SIGNALS:
            signal.signal(signum, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
        _keep_freed_memory()
        with open(write_fd, "wb") as pipe:
            for i in indices:
                pickle.dump(parse(i), pipe, protocol=pickle.HIGHEST_PROTOCOL)
                pipe.flush()
        code = 0
    except (BrokenPipeError, KeyboardInterrupt):
        pass  # the parent is gone or stopping; it reports what matters
    except BaseException:
        sys.excepthook(*sys.exc_info())  # as an uncaught error prints, without importing traceback
        sys.stderr.flush()
    finally:
        # skip the parent's atexit handlers and buffered output
        os._exit(code)


def _keep_freed_memory() -> None:
    """Have the C allocator keep the memory this process frees, for its next chunk.

    Parsing a chunk allocates and frees a few MB of numpy arrays and bytes.
    By default glibc maps each allocation over a threshold that it raises as
    it goes, and trims the top of its heap once the free space there passes
    twice that threshold. Whether a child's chunks then reuse their
    predecessors' pages or fault all of theirs in afresh depended on the
    sizes it happened to free first. With both thresholds fixed, the heap
    keeps what one chunk freed for the next. Does nothing where the C
    library has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
