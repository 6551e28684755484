"""Starts benchmark children and reaps them with os.wait4; imports only the stdlib.

A child's ru_maxrss includes the peak RSS of the process that spawned it,
because Linux folds the old address space's high-water mark into the child
at exec. The benchmark process grows as it decodes archives, so the
children that are measured are spawned from this small process instead.

Protocol, one JSON object per line. Read {"argv", "env", "stdout",
"stderr", "timeout_s"}, start the child with its standard output and
standard error sent to the named files, and write {"pid"}. When the child
ends, write {"returncode", "wall_s", "cpu_s", "maxrss_kb"}. Exit at end of
input.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    child = [0]

    def kill_child(signum, frame):
        os.kill(child[0], signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill_child)
    for line in sys.stdin:
        req = json.loads(line)
        write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        t0 = time.perf_counter()
        child[0] = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], write, 0o644),
        ])
        print(json.dumps({"pid": child[0]}), flush=True)
        signal.alarm(int(req["timeout_s"]))
        _, status, usage = os.wait4(child[0], 0)
        signal.alarm(0)
        print(json.dumps({
            "returncode": os.waitstatus_to_exitcode(status),
            "wall_s": time.perf_counter() - t0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }), flush=True)


if __name__ == "__main__":
    main()
