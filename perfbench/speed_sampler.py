"""Sample the host's CPU speed while a measurement runs.

Shared hosts change speed by tens of percent for tens of seconds at a time,
so raw wall times of identical commands spread far wider than any useful
regression bound. Every ``PERIOD_S`` this process runs a fixed pure-Python
chunk and records its CPU time (``thread_time``, which excludes time spent
waiting for a CPU) and the ``perf_counter`` reading at its end. The caller
scales each measured interval by the chunk time sampled inside it.

The chunk uses about 4% of one CPU. The process exits on SIGINT, or when
its parent is gone, and then writes ``{"t": [...], "cpu": [...]}`` as JSON.

Usage: speed_sampler.py OUT_JSON
"""
import json
import os
import sys
import time

PERIOD_S = 0.05


def chunk() -> None:
    acc = 0
    table = {}
    for j in range(20_000):
        acc += j * j
        table[j & 1023] = acc


def main() -> None:
    parent = os.getppid()
    stamps, cpu = [], []
    try:
        while os.getppid() == parent:
            c0 = time.thread_time()
            chunk()
            cpu.append(time.thread_time() - c0)
            stamps.append(time.perf_counter())
            time.sleep(PERIOD_S)
    except KeyboardInterrupt:
        pass
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"t": stamps, "cpu": cpu}, fh)


if __name__ == "__main__":
    main()
