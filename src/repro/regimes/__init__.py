"""Alternative memory regimes: pluggable translation + pager mixes.

The paper's §6.6 argument is that stretch drivers are *unprivileged
and pluggable*: any domain may implement any paging policy it likes,
and the system only enforces ownership and accountability. This
subsystem takes that argument to its logical end and turns the
reproduction into an **ablation platform** — same workloads, same
self-paging invariants, swappable memory regime:

* :class:`~repro.regimes.seg.SegDriver` +
  :class:`~repro.hw.mmu.SegTranslation` — a segmentation-style
  regime (after Teabe et al., "segmentation is better than paging"):
  a whole stretch is backed by one physically contiguous frame extent
  and translated by a single base+limit entry instead of per-page
  mappings. First touch maps the entire extent in one validated
  syscall; revocation shrinks the extent from its tail through the
  ordinary ``release_frames`` contract. Every MMU owns its extent
  registry; ``SegExtent`` and ``SegTranslation`` are re-exported here.

* :class:`~repro.regimes.registry.PagerRegistry` — the per-stretch
  pager registry (after Klimiankou's multi-pager environments): one
  domain runs several pager personalities at once (paged +
  mapped-file + nailed + seg), faults demultiplexed by stretch
  ownership and revocation walking the registered drivers in declared
  priority order. All costs stay on the owning domain's contract.

The ablation built on these two is data: Table 1's first-touch
fault cost seg vs paged (:func:`repro.exp.microbench.seg_vs_paged`),
and the committed missions ``regimes-bandwidth`` (the fig7-style read
loop under both regimes) and ``regimes-revocation-waves`` (a
three-pager domain held accountable under revocation pressure), run
with ``python -m repro.exp sweep NAME``.
"""

from repro.hw.mmu import SegExtent, SegTranslation
from repro.regimes.registry import PagerRegistry
from repro.regimes.seg import SegDriver

__all__ = ["PagerRegistry", "SegDriver", "SegExtent", "SegTranslation"]
