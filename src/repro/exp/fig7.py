"""Figure 7: paging-in isolation.

"The first experiment is designed to illustrate the overall performance
and isolation achieved when multiple domains are paging in data from
different parts of the same disk. ... The experiment uses three
applications: one is allocated 25ms per 250ms, the second allocated
50ms per 250ms, and the third allocated 100ms per 250ms ... No domain
is eligible for slack time, and all domains have a laxity value of
10ms.

Observe that the ratio between the three domains is very close to
4:2:1, which is what one would expect if each domain were receiving all
of its guaranteed time."

This module regenerates both halves of the figure: the sustained
bandwidth per client (top) and the USD scheduler trace (bottom:
transactions, lax time, allocations).

Expected runtime: ~11 s at paper scale, 3 s at benchmark scale;
``python -m repro.exp.regenerate`` runs it (``--scale paper`` for the
paper's parameters).
"""

from repro.exp.common import PagingConfig, run_paging_experiment


def run(config=PagingConfig()):
    """Run the paging-in experiment; returns a PagingResult."""
    return run_paging_experiment("read-loop", config)
