"""Reference work for measuring the machine's current speed.

The speed of a shared machine drifts by up to 2x over tens of seconds, for
the program and for any other Python code alike.  The benchmark times this
fixed piece of work before each request and reports request times at the
speed at which it takes NOMINAL_NS.  The program never runs this code, so a change to
the program shows in full while the machine's drift cancels.
"""

from time import perf_counter_ns

# Median time of reference_ns() on the machine named in README.md.
NOMINAL_NS = 1_250_000


def reference_ns():
    """Time of the reference work: tuples, a dict and sums."""
    start = perf_counter_ns()
    table = {}
    total = 0
    for i in range(3000):
        item = (i, i % 7, i % 11)
        table[item[1:]] = item
        total += sum(item) % 7
    return perf_counter_ns() - start
