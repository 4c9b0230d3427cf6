"""Starts the benchmark's children from a process that stays small.

Linux folds the peak resident set of the process image an exec replaces
into the max-RSS that wait4 later reports for the child. A child forked
from the benchmark process, which imports numpy and builds reference
traces of several MB, would report that process's peak whenever it is
larger than its own. This helper imports only ``json`` and ``os``, so what
wait4 gives it for each child is that child's own peak.

It runs in the directory the inputs are in, with the environment the
children get, and reads one request per line on stdin::

    {"argv": [...], "stdout": "child.stdout", "stderr": "child.stderr"}

It starts ``argv`` with its output sent to the two files, reaps it with
``os.wait4`` and answers with one line::

    {"wall": seconds, "maxrss_kb": kilobytes, "status": raw wait status}

It exits at the end of its input, which is also what happens when the
benchmark process exits.
"""

import json
import os
import sys
from time import perf_counter

_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        argv = request["argv"]
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], _FLAGS, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], _FLAGS, 0o644),
        ]
        start = perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - start
        reply = {"wall": wall, "maxrss_kb": usage.ru_maxrss, "status": status}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
