"""Timing helper shared by the timing-shape tests and the acceptance suite."""

import time


def best_of_each(fns, repeats, budget_s=0.0):
    """Minimum call time of each function, calling them in turn until each has
    had at least `repeats` calls and at least `budget_s` seconds of calls.
    Taking turns puts a slow spell of a shared host on every function alike."""
    for fn in fns:
        fn()
    times = [[] for _ in fns]
    while len(times[0]) < repeats or min(sum(t) for t in times) < budget_s:
        for fn, t in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            t.append(time.perf_counter() - t0)
    return [min(t) for t in times]
