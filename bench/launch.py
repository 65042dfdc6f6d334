"""Starts the benchmark's timed processes, one at a time, from a process that stays small.

On Linux a child's peak RSS (``ru_maxrss``) includes the high-water RSS of
the address space it had before ``exec``, which is its parent's.  run.py
grows while it checks outputs, so it does not start the timed processes
itself: it starts this launcher once, while it is still small, and sends it
one JSON request per line on stdin:

    {"argv": [...], "cwd": "...", "out": "...", "timeout": 12.5}

The launcher runs the command with stdout sent to ``out`` and stderr to
``out`` with the suffix ``.err``, kills it with SIGKILL once ``timeout``
seconds have passed, and answers with one JSON line:

    {"wall": seconds from start to reaping, "code": exit code, "rss_mb": peak RSS}

It exits when its stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path


def run(request: dict) -> dict:
    out = Path(request["out"])
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr)
        timer = threading.Timer(max(request["timeout"], 0.0), os.kill,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
