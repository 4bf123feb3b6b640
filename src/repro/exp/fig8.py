"""Figure 8: paging-out isolation.

"The second experiment is designed to illustrate the overall
performance and isolation achieved when multiple domains are paging out
data to different parts of the same disk. The test application operates
with a slightly modified stretch driver in order to achieve this effect
— it 'forgets' that pages have a copy on disk and hence never pages in
during a page fault. ...

As can been seen, the domains once again proceed roughly in proportion,
although overall throughput is much reduced. ... almost every
transaction is taking on the order of 10ms, with some clearly taking an
additional rotational delay ... One may also observe the fact that the
client with the smallest slice (which is 25ms) tends to complete three
transactions (totalling more than 25ms) in some periods, but then will
obtain less time in the following period [roll-over accounting]."

Expected runtime: under a second at either scale; ``python -m
repro.exp.regenerate`` runs it (``--scale paper`` for the paper's
parameters).
"""

from repro.exp.common import PagingConfig, run_paging_experiment
from repro.sim.units import MS


def run(config=PagingConfig()):
    """Run the paging-out experiment; returns a PagingResult."""
    return run_paging_experiment("write-loop", config)


def rollover_evidence(result, max_periods=200):
    """Find periods where the smallest client overran its slice and was
    debited in the next period (the paper's roll-over observation).

    Returns a list of (period_index, served_ms, next_allocation_ms).
    """
    config = result.config
    trace = result.system.usd_trace
    if trace is None:
        return []
    smallest_ms = min(config.slices_ms)
    name = None
    for app in result.apps:
        if app.name == config.app_name(smallest_ms):
            name = app.driver.swap.name
    period = config.period_ms * MS
    start, end = result.window
    evidence = []
    p0 = start // period
    for index in range(int(p0), int(p0) + max_periods):
        w0, w1 = index * period, (index + 1) * period
        if w1 > end:
            break
        served = trace.total_duration(kind="txn", client=name,
                                      start=w0, end=w1)
        if served <= smallest_ms * MS:
            continue
        allocs = trace.filter(kind="alloc", client=name, start=w1,
                              end=w1 + period)
        if not allocs:
            continue
        next_alloc = allocs[0].info.get("remaining", 0)
        if next_alloc < smallest_ms * MS:
            evidence.append((index, served / MS, next_alloc / MS))
    return evidence
