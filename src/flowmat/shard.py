"""Parse a regular input file in forked worker processes.

The file is cut into byte chunks of CHUNK_BYTES, read up to the size it had
when it was opened. A chunk owns the lines that start inside it
(eve.chunk_lines), so every line is parsed once, by the rules a streamed
read applies. With n the number of CPUs this process may run on, or the
number of chunks if that is smaller, the parent parses chunks 0, n, 2n, ...
itself, and n - 1 children made with os.fork parse the others: child k
takes chunks k, k + n, ... and sends each one's (column batches, counters)
over its own pipe, in order. A file of one chunk forks nothing. The parent
takes the results in chunk order, so everything after parsing sees the
records in file order. A child blocks once its pipe is full, which bounds the
results waiting for the parent to a pipe's worth per child.

multiprocessing is not used: it starts helper threads and adds import time,
and a forked child already holds everything it needs. A child ignores
SIGINT, which the parent handles, and exits quietly on a broken pipe once the
parent is gone. The parent kills and reaps every child that is still running
when it stops early, and a child that dies before sending a chunk is a
WorkerError naming its exit status.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
from typing import Iterator, NoReturn

from flowmat.eve import FlowColumns, IngestCounters, chunk_lines, parse_columns

CHUNK_BYTES = 1 << 18

_LENGTH = struct.Struct("<Q")  # the size of one pickled chunk result


class WorkerError(RuntimeError):
    """A parse worker died before it sent all of its chunks."""


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


def parse_file(fd: int, size: int, counters: IngestCounters,
               batch_records: int) -> Iterator[FlowColumns]:
    """Column batches of the first size bytes of fd, in file order; counters track every line.

    Each chunk's batches hold at most batch_records records. A chunk's
    counters are added when its batches are taken, so the counters are
    exact once the batches are drained.
    """
    chunk = CHUNK_BYTES
    n_chunks = -(-size // chunk)
    n = max(1, min(worker_count(), n_chunks))

    def parse(index: int) -> tuple[list[FlowColumns], IngestCounters]:
        return _parse_chunk(fd, size, chunk, index, batch_records)

    workers: list[_Worker] = []
    try:
        for k in range(1, n):
            workers.append(_Worker.start(parse, range(k, n_chunks, n), workers))
        for i in range(n_chunks):
            batches, chunk_counters = workers[i % n - 1].receive(i) if i % n else parse(i)
            counters.add(chunk_counters)
            yield from batches
        for worker in workers:
            worker.finish()
    finally:
        for worker in workers:
            worker.stop()


def _parse_chunk(fd: int, size: int, chunk: int, index: int,
                 batch_records: int) -> tuple[list[FlowColumns], IngestCounters]:
    counters = IngestCounters()
    start = index * chunk
    lines = chunk_lines(fd, start, min(start + chunk, size), size)
    return list(parse_columns(lines, counters, batch_records)), counters


class _Worker:
    """One forked child and the read end of its pipe, as the parent sees them."""

    def __init__(self, pid: int, pipe):
        self.pid = pid
        self.pipe = pipe
        self.exit_code: int | None = None

    @classmethod
    def start(cls, parse, indices: range, siblings: list[_Worker]) -> _Worker:
        """Fork a child that sends parse(i) for each chunk index in indices."""
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            # a sibling's pipe held open here would keep it writing after the parent is gone
            for sibling in siblings:
                os.close(sibling.pipe.fileno())
            _serve(parse, indices, write_fd)
        os.close(write_fd)
        return cls(pid, open(read_fd, "rb"))

    def receive(self, index: int) -> tuple[list[FlowColumns], IngestCounters]:
        head = self.pipe.read(_LENGTH.size)
        if len(head) == _LENGTH.size:
            (length,) = _LENGTH.unpack(head)
            payload = self.pipe.read(length)
            if len(payload) == length:
                return pickle.loads(payload)
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
            _, status = os.waitpid(self.pid, 0)
            self.exit_code = os.waitstatus_to_exitcode(status)
        return self.exit_code

    def _ended(self) -> str:
        code = self.wait()
        return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"


def _serve(parse, indices: range, write_fd: int) -> NoReturn:
    """The child: send parse(i) for each chunk index in indices, in order; never returns."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with open(write_fd, "wb") as pipe:
            for i in indices:
                payload = pickle.dumps(parse(i), protocol=pickle.HIGHEST_PROTOCOL)
                pipe.write(_LENGTH.pack(len(payload)))
                pipe.write(payload)
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
