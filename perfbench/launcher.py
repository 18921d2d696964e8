"""Start the benchmark's child processes and report what each one used.

Reads one JSON request a line on stdin, ``{"argv", "stdout", "stderr",
"timeout"}``, runs it to the end and answers one JSON line on stdout,
``{"wall_s", "cpu_s", "maxrss_kb", "status"}``.  Children get this
process's environment and working directory and read ``/dev/null``.

Linux charges a spawned child's ``ru_maxrss`` with the peak resident size
of the process that spawned it.  This process stays small, so a child's
peak is its own; the harness grows with its reference values and must not
spawn the children it measures.
"""

import json
import os
import signal
import sys
import time

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, req["stdout"], _WRITE, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, req["stderr"], _WRITE, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                             file_actions=actions)
        signal.signal(signal.SIGALRM,
                      lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(req["timeout"])
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
        print(json.dumps({"wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss,
                          "status": os.waitstatus_to_exitcode(status)}),
              flush=True)


if __name__ == "__main__":
    main()
