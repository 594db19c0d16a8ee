"""Keep one CPU from going idle while a benchmark run lasts.

    python3 perfbench/awake.py CPU

Pins itself to ``CPU``, drops to the ``SCHED_IDLE`` scheduling policy,
prints one line and spins until its parent exits or it is terminated.
Under ``SCHED_IDLE`` any other thread that becomes runnable on that CPU
takes it at once, so the spinning only fills time the CPU would otherwise
spend halted.

On a virtual machine, a halted virtual CPU is woken through the
hypervisor.  On a shared host that wake-up can take long enough to
dominate millisecond latencies (``README.md`` gives the figures); a CPU
that never halts is never woken.
"""

from __future__ import annotations

import os
import sys


def main() -> None:
    cpu = int(sys.argv[1])
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    print("spinning", flush=True)
    while os.getppid() == parent:
        for _ in range(10000):
            pass


if __name__ == "__main__":
    main()
