"""Credit network throughput and deadlock analysis toolkit.

Importing the package pins two of glibc's malloc thresholds, for the
whole process and every library in it: M_MMAP_THRESHOLD at 32 MiB and
M_TRIM_THRESHOLD at 64 MiB.  They are the values glibc's own dynamic rule
ends on (its 64-bit mmap ceiling, and trim at twice mmap), set from the
start.  Left to that rule, a process that has not yet freed a large block
serves numpy's 0.1-8 MB per-call temporaries (demand draws, route walks,
routing systems) from fresh mmaps, unmapped again on free and faulted in
again page by page on the next call: a pass over the three peel-stress
sweep cells read 2,600 to 6,300 minor faults after the first, a different
count in each process.  Pinned, the heap keeps those pages, and such a pass
reads 2-6 faults.  Elsewhere than glibc nothing is changed.
"""

import os

from .model import (
    BACKWARD,
    BOUNDARY,
    CORNER,
    FORWARD,
    INTERIOR,
    BalanceState,
    CreditNetwork,
    FlowVector,
    Path,
    PathSet,
    RoutingSystem,
    StateClass,
    apply_flow,
    build_routing_system,
    center_state,
    check_feasible,
    classify_state,
    make_flow,
    make_network,
    make_state,
)

__version__ = "0.1.0"

# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds() -> None:
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # not glibc, or not POSIX
        return
    if libc.startswith("glibc"):
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_pin_malloc_thresholds()
