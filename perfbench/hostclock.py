"""Clocks the benchmark times with, on a virtual machine shared with others.

On a virtual machine the host can hold a virtual CPU that is ready to run
while it runs another machine.  Linux counts that time per CPU as *steal*
in ``/proc/stat``.  It is neither the program's work nor its waiting: it is
how busy the other tenants are, and it comes in bursts that move a pass's
wall clock by tens of percent from one run to the next.

``clock`` is the wall clock minus the steal of the CPUs the calling thread
may run on, so the difference of two readings is the elapsed time less the
steal in between.  The benchmark pins itself to one CPU (``pin_to_one_cpu``)
so that this is the steal of the CPU its threads ran on: the steal of an
idle CPU woken by the program would otherwise be counted too.  On a machine
with dedicated CPUs steal stays 0 and ``clock`` is the wall clock.  Steal is
counted in ticks of 10 ms, so ``clock`` suits intervals of a tenth of a
second and more; shorter steps of pure CPU work are timed with
``time.thread_time``, which leaves steal out at nanosecond resolution.
"""

from __future__ import annotations

import os
import time

_STAT = "/proc/stat"
#: Seconds per ``/proc/stat`` tick.
_TICK = 1.0 / os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 0.01
#: Position of the steal column in a ``cpuN`` line, after the label.
_STEAL_FIELD = 8


def pin_to_one_cpu() -> int | None:
    """Keep the calling thread, and threads it starts later, on one CPU.

    Returns the CPU, or None where the platform cannot pin.  The program's
    threads take turns under the interpreter lock, so one CPU serves them.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_s() -> float:
    """Steal time since boot of the CPUs this thread may run on, in seconds.

    0.0 where ``/proc/stat`` or its steal column is missing.
    """
    cpus = ({f"cpu{n}".encode() for n in os.sched_getaffinity(0)}
            if hasattr(os, "sched_getaffinity") else None)
    total = 0
    try:
        with open(_STAT, "rb") as stat:
            for line in stat:
                fields = line.split()
                if not fields or not fields[0].startswith(b"cpu"):
                    break
                if fields[0] == b"cpu" or len(fields) <= _STEAL_FIELD:
                    continue
                if cpus is None or fields[0] in cpus:
                    total += int(fields[_STEAL_FIELD])
    except OSError:
        return 0.0
    return total * _TICK


def clock() -> float:
    """Wall clock less steal, in seconds; only differences are meaningful."""
    return time.perf_counter() - steal_s()
