"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark shares a few cores of a host with other tenants, and their
load slows every instruction of this process by up to 2x, for seconds or
whole minutes at a time.  No statistic within one run removes a slowdown
that lasts the whole run.  So the timed loop runs this kernel between ops
and scales each op's time by the kernel's time around it:

    op time at reference speed = measured op time * REFERENCE_MS / kernel time

The kernel is plain Python that does the library's kind of work (a flood
fill with tuple keys in a dict, a list stack, string building) and calls
nothing of the library, so a change to the library changes op times and
leaves the kernel's time alone.  Garbage collection is off while it runs,
so the size of the library's heap does not reach into its time.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

# The kernel's time on an unloaded machine (an x86-64 core at about 3 GHz
# with CPython 3.11), so scaled op times read close to wall times there.
REFERENCE_MS = 2.0

SIDE = 40


def kernel():
    """Label the 4-connected regions of a fixed 40x40 pattern and list
    their sizes."""
    owner = {}
    region = 0
    for y in range(SIDE):
        for x in range(SIDE):
            if (x, y) in owner:
                continue
            owner[(x, y)] = region
            stack = [(x, y)]
            while stack:
                cx, cy = stack.pop()
                for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1),
                               (cx, cy - 1)):
                    if (0 <= nx < SIDE and 0 <= ny < SIDE
                            and (nx, ny) not in owner
                            and (nx * 7 + ny * 11 + cx * 3) % 9):
                        owner[(nx, ny)] = region
                        stack.append((nx, ny))
            region += 1
    sizes = [0] * region
    for r in owner.values():
        sizes[r] += 1
    return ",".join(map(str, sizes))


def kernel_ms():
    """One timed run of the kernel, in milliseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        kernel()
        return (perf_counter_ns() - t0) / 1e6
    finally:
        if enabled:
            gc.enable()
