#!/usr/bin/env python3
"""A sweep bench whose pool workers hit fatal() must exit promptly.

    worker_fatal_exit.py BENCH [RUNS]

Runs the figure bench BENCH RUNS times (default 10) on a 4-worker
sweep pool with SIPT_TRACE naming a file in a directory that does not
exist, so the first job to open the tracer calls fatal() on a pool
worker. Every run must end within the time limit, with a non-zero
status and the tracer's message on stderr. Before worker-side fatal()
reached the caller through the job's future, exit() on the worker
joined the process-wide pool from inside it, and the bench aborted
or hung.
"""

import os
import subprocess
import sys
import tempfile

TIME_LIMIT_S = 60
MESSAGE = "cannot open SIPT_TRACE file"


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) == 3 else 10
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SIPT_")}
    with tempfile.TemporaryDirectory() as scratch:
        env.update({
            "SIPT_THREADS": "4",
            "SIPT_REFS": "2000",
            "SIPT_WARMUP": "2000",
            "SIPT_TRACE": os.path.join(scratch, "missing", "t.jsonl"),
        })
        for run in range(1, runs + 1):
            try:
                proc = subprocess.run(
                    [bench], env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True,
                    timeout=TIME_LIMIT_S)
            except subprocess.TimeoutExpired:
                print(f"run {run}: no exit within {TIME_LIMIT_S} s",
                      file=sys.stderr)
                return 1
            if proc.returncode == 0 or MESSAGE not in proc.stderr:
                print(f"run {run}: status {proc.returncode}, stderr:\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
    print(f"{runs} of {runs} runs exited non-zero with the message")
    return 0


if __name__ == "__main__":
    sys.exit(main())
