"""Traced memory of one call, for the tests that bound a working set."""

import gc
import tracemalloc


def traced_peak(call):
    """(result, peak, retained) of ``call()`` under tracemalloc, in bytes.

    Both are counted from the traced memory at the call's start: the peak is
    the most the call held at once, and the retained bytes are what it
    leaves allocated, its result and any table it kept.  The peak less the
    retained bytes is the call's transient working set.
    """
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, current - start
