import os

import pytest


@pytest.fixture
def pin_cpus():
    """pin_cpus(count) runs the test's thread, and every thread it starts
    from then on, on count of the CPUs the process may use (all of them
    where the platform cannot pin a thread), until the test ends. With
    count 1 the worker of a two-thread pass and the calling thread share
    one CPU, as under `taskset -c 0`."""
    if not hasattr(os, "sched_setaffinity"):
        yield lambda count: None
        return
    allowed = os.sched_getaffinity(0)
    yield lambda count: os.sched_setaffinity(0, sorted(allowed)[:count])
    os.sched_setaffinity(0, allowed)
