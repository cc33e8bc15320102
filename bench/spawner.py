"""Runs one child process per request, for run.py, from a small process.

Linux carries the peak RSS of the process that spawns a child into the
child's ru_maxrss.  run.py grows while it builds references and runs
traced jobs; this process only spawns, streams and waits, so the floor
it leaves under each child's ru_maxrss is that of an idle interpreter.
Start it with ``python3 -S -I`` so that it imports nothing else.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "env": {...}, "stdout": path or null, "stderr": path}
answered by one JSON line on stdout,
    {"code", "digest", "wall", "first_byte", "rss_kib"}.
The child's stdout is hashed and, when "stdout" names a file, copied to
it; nothing is kept in memory.  Times are in seconds from the spawn.
"""

import hashlib
import json
import os
import sys
import time

READ_SIZE = 1 << 16


def run(request: dict) -> dict:
    read_fd, write_fd = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, write_fd, 1),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    digest = hashlib.sha256()
    first_byte = None
    copy = open(request["stdout"], "wb") if request["stdout"] else None
    try:
        start = time.perf_counter()
        try:
            pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"],
                                 file_actions=actions)
        finally:
            os.close(write_fd)
        while chunk := os.read(read_fd, READ_SIZE):
            if first_byte is None:
                first_byte = time.perf_counter() - start
            digest.update(chunk)
            if copy:
                copy.write(chunk)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(read_fd)
        if copy:
            copy.close()
    return {
        "code": os.waitstatus_to_exitcode(status),
        "digest": digest.hexdigest(),
        "wall": wall,
        "first_byte": wall if first_byte is None else first_byte,
        "rss_kib": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
