"""Run one command and write its wall time, peak RSS, exit status and the
machine's pace while it ran, as JSON.

    python3 -I perfbench/spawn.py RESULT.json COMMAND [ARG...]

Peak RSS read through `wait4` counts the pages a child inherited when it was
forked, so a child forked straight from the benchmark (hundreds of MB of
expectations) would report the benchmark's size. This small process forks the
command instead; its own few MB are all the command can inherit.

While it waits, this process times `pace_probe`, a fixed half-millisecond of
interpreter work, before the command, every `PACE_INTERVAL_S` while it runs
(on the core the command leaves idle, about 1% of it) and after it. On a
shared host the speed of the same code changes by half within a minute; the
median probe time tracks it, and the benchmark divides it out of each wall
time (see `calibrated` in run.py).
"""

import json
import os
import select
import statistics
import sys
import time

PACE_INTERVAL_S = 0.05
PACE_BRACKET = 3  # probes before and after the command


def pace_probe() -> float:
    """Seconds taken by a fixed piece of dict, integer and string work."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i * i
    sorted(str(v) for v in table.values())
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    result_path, command = argv[0], argv[1:]
    probes = [pace_probe() for _ in range(PACE_BRACKET)]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    exited = os.pidfd_open(pid)
    try:
        while not select.select([exited], [], [], PACE_INTERVAL_S)[0]:
            probes.append(pace_probe())
        wall = time.perf_counter() - start
    finally:
        os.close(exited)
    _, status, usage = os.wait4(pid, 0)
    probes.extend(pace_probe() for _ in range(PACE_BRACKET))
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
                   "code": os.waitstatus_to_exitcode(status),
                   "pace_s": statistics.median(probes)}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
