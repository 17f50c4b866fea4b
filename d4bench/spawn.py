"""Run one command as a grandchild of the harness and report its peak RSS.

    python3 -S spawn.py META_FD TIMEOUT_S PROGRAM [ARGS...]

Linux charges a process with the resident size of the address space it was
spawned from: a direct child of the harness reports at least the harness's
own RSS as its maximum. This small process forks and executes the command
instead, so the command's ``ru_maxrss`` is its own. It writes
``STATUS MAXRSS_KB SPAWNED ENDED`` (a wait status, kilobytes, and
CLOCK_MONOTONIC seconds around fork and reap) to META_FD. The command
inherits every other descriptor; after TIMEOUT_S it is killed.
"""

import os
import signal
import sys
import time


def main(argv: list[str]) -> int:
    meta_fd, timeout_s, command = int(argv[1]), int(argv[2]), argv[3:]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    pid = os.fork()
    if pid == 0:
        os.close(meta_fd)
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout_s)
    _, status, usage = os.wait4(pid, 0)
    ended = time.clock_gettime(time.CLOCK_MONOTONIC)
    signal.alarm(0)
    os.write(meta_fd, f"{status} {usage.ru_maxrss} {spawned!r} {ended!r}".encode())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
