"""Regenerate EXPERIMENTS.md from live runs.

Usage: ``python -m repro.exp.regenerate [output-path]``

Runs every experiment (benchmark-scale configurations) and writes the
paper-vs-measured record. This keeps the documented numbers honest:
they are whatever the code in the working tree actually produces.

Expected runtime: a few minutes (it runs every experiment).
"""

import sys

from repro.exp import ablations, fig7, fig8, fig9, microbench
from repro.exp.common import small_config


def _fmt_ratio_map(ratios):
    return ", ".join("%s %.2f" % (name.replace("pager-", ""), value)
                     for name, value in sorted(ratios.items(),
                                               key=lambda kv: -kv[1]))


def build(iterations=100):
    """Run benchmark-scale experiments and build the EXPERIMENTS.md text."""
    lines = []
    w = lines.append
    w("# EXPERIMENTS — paper vs. measured")
    w("")
    w("Regenerated by `python -m repro.exp.regenerate` from live runs of")
    w("the harness (benchmark-scale configurations; the CLI modules run")
    w("paper-scale). All runs are deterministic. The complete CLI —")
    w("including the `sweep` (every scenario mission), `report --metrics`,")
    w("`bench` and `--profile` surfaces not shown in these tables — is")
    w('documented in README.md ("Running experiments"); the performance')
    w("plane that keeps these runs affordable is docs/PERFORMANCE.md.")
    w("")

    # ----- Table 1 ------------------------------------------------------
    w("## Table 1 — VM-primitive microbenchmarks")
    w("")
    w("Methodology: the simulated code paths are actually executed")
    w("(page-table walks, PTE writes, protection-domain updates, live")
    w("fault dispatch through kernel + MMEntry) and priced by the")
    w("calibrated cost model of `repro.hw.cpu` (anchors: the paper's own")
    w("event-send <50 ns / context-save ~750 ns / activate <200 ns")
    w("breakdown). The OSF1 column cannot be reproduced (no OSF1); it is")
    w("the paper's published data, shown for reference.")
    w("")
    result = microbench.run(iterations=iterations)
    measured = result.measured
    w("| benchmark | paper Nemesis (us) | measured (us) | paper OSF1 (us) |")
    w("|---|---|---|---|")
    rows = [
        ("dirty", "0.15", "%.2f" % measured["dirty"], "n/a"),
        ("(un)prot1", "0.42 [0.40]",
         "%.2f [%.2f]" % (measured["prot1"], measured["prot1_pd"]), "3.36"),
        ("(un)prot100", "10.78 [0.30]",
         "%.2f [%.2f]" % (measured["prot100"], measured["prot100_pd"]),
         "5.14"),
        ("trap", "4.20", "%.2f" % measured["trap"], "10.33"),
        ("appel1", "5.33", "%.2f" % measured["appel1"], "24.08"),
        ("appel2", "9.75", "%.2f" % measured["appel2"], "19.12"),
    ]
    for row in rows:
        w("| %s | %s | %s | %s |" % row)
    w("")
    w("Side observations from §7, also reproduced:")
    w("")
    w("* idempotent (un)prot short-circuit: paper ~0.15 us, measured "
      "%.2f us" % measured["prot_idempotent"])
    w("* guarded vs linear page table on `dirty`: paper ~3x, measured "
      "%.1fx" % measured["dirty_guarded_factor"])
    w("")

    # ----- Figure 7 ------------------------------------------------------
    w("## Figure 7 — paging in (QoS firewalling)")
    w("")
    w("Three self-paging apps, 2 frames / 16 MB swap each, guarantees")
    w("100/50/25 ms per 250 ms, laxity 10 ms, no slack. Workload: demand-")
    w("zero pass, dirty pass, then a sequential read loop (benchmark scale")
    w("uses 1 MB stretches; steady state is identical).")
    w("")
    config7 = small_config(measure_sec=15.0)
    result7 = fig7.run(config7)
    w("| quantity | paper | measured |")
    w("|---|---|---|")
    w("| progress ratio | \"very close to 4:2:1\" | %s |"
      % _fmt_ratio_map(result7.ratios))
    w("| bandwidths (Mbit/s) | (plotted) | %s |"
      % ", ".join("%s %.2f" % (k.replace("pager-", ""), v)
                  for k, v in sorted(result7.bandwidth_mbit.items(),
                                     key=lambda kv: -kv[1])))
    means = [s["mean_ms"] for s in result7.txn_stats.values()]
    w("| transaction durations | \"roughly the same time\" (cached "
      "sequential reads) | %.1f-%.1f ms mean per client |"
      % (min(means), max(means)))
    w("| max single lax interval | never exceeds the 10 ms laxity "
      "| %.2f ms |" % result7.max_lax_ms)
    w("")
    w("USD scheduler trace (1 s window, as in the figure's bottom plot):")
    w("")
    w("```")
    start = result7.window[0]
    w(__import__("repro.exp.report", fromlist=["report"]).usd_trace_text(
        result7.system.usd_trace, start, start + 1_000_000_000))
    w("```")
    w("")

    # ----- Figure 8 ------------------------------------------------------
    w("## Figure 8 — paging out")
    w("")
    w("Same setup with the 'forgetful' stretch driver: every fault")
    w("demand-zeroes, every eviction writes (pure page-out load).")
    w("")
    config8 = small_config(measure_sec=15.0)
    result8 = fig8.run(config8)
    w("| quantity | paper | measured |")
    w("|---|---|---|")
    w("| progress ratio | \"roughly in proportion\" | %s |"
      % _fmt_ratio_map(result8.ratios))
    means8 = [s["mean_ms"] for s in result8.txn_stats.values()]
    w("| transaction durations | \"on the order of 10ms, with some ... an "
      "additional rotational delay\" | %.1f-%.1f ms mean |"
      % (min(means8), max(means8)))
    top7 = max(result7.bandwidth_mbit.values())
    top8 = max(result8.bandwidth_mbit.values())
    w("| overall throughput | \"much reduced\" vs Figure 7 | %.1fx lower "
      "(%.2f vs %.2f Mbit/s at 40%%) |" % (top7 / top8, top8, top7))
    evidence = fig8.rollover_evidence(result8)
    w("| roll-over accounting | 25 ms client completes 3 txns > slice, "
      "then is debited | %d overrun periods each followed by a debited "
      "allocation |" % len(evidence))
    w("")

    # ----- Figure 9 ------------------------------------------------------
    w("## Figure 9 — file-system isolation")
    w("")
    result9 = fig9.run()
    w("Pipelined FS client (depth 16, page-sized reads, 125 ms/250 ms on")
    w("its own partition), alone vs. with two paging apps (10%, 20%).")
    w("")
    w("| quantity | paper | measured |")
    w("|---|---|---|")
    w("| FS bandwidth alone | (plotted) | %.2f Mbit/s |" % result9.solo_mbit)
    w("| FS bandwidth + 2 pagers | \"remains almost exactly the same\" | "
      "%.2f Mbit/s (%.1f%% retention) |"
      % (result9.contended_mbit, 100 * result9.retention))
    w("")

    # ----- Ablations -----------------------------------------------------
    w("## Ablations (design choices the paper calls out)")
    w("")
    lax = ablations.laxity()
    worst = max(lax.collapse_factor(name) for name in lax.with_laxity)
    w("* **Laxity (the short-block problem, §6.7)** — with l=0 every")
    w("  paging client degrades to ~1 transaction per period: throughput")
    w("  collapses up to %.0fx (%.2f -> %.2f Mbit/s for the 40%% client)."
      % (worst, lax.with_laxity["pager-40%"],
         lax.without_laxity["pager-40%"]))
    ro = ablations.rollover()
    worst_with = max(ro.usage_with.values())
    worst_without = max(ro.usage_without.values())
    w("* **Roll-over accounting** — fraction of guarantee consumed under")
    w("  overrunning (~12 ms) transactions: <= %.3f with roll-over; up to"
      % worst_with)
    w("  %.3f without (clients deterministically exceed their guarantee)."
      % worst_without)
    ct = ablations.crosstalk_paging()
    w("* **No disk QoS (FCFS baseline)** — the Figure 7 workload yields")
    w("  ratios %s under the USD but %s under FCFS: differentiated"
      % (_fmt_ratio_map(ct.usd_ratios), _fmt_ratio_map(ct.fcfs_ratios)))
    w("  service is impossible without scheduling.")
    fs = ablations.crosstalk_fs()
    w("* **Figure 9 without QoS** — FS-client retention drops from "
      "%.0f%% (USD) to %.0f%% (FCFS)."
      % (100 * fs.usd_retention, 100 * fs.fcfs_retention))
    ep = ablations.external_pager()
    w("* **Shared external pager (Figure 2 left, §5)** — a light client's")
    w("  mean fault latency: %.1f ms solo, %.1f ms behind a shared FIFO"
      % (ep.solo_latency_ms, ep.shared_latency_ms))
    w("  pager under load (%.0fx degradation), %.1f ms with its own USD"
      % (ep.degradation, ep.usd_latency_ms))
    w("  guarantee; the pager burned %.0f ms of CPU that was accounted"
      % ep.pager_cpu_ms)
    w("  to nobody.")
    w("")

    # ----- Extensions -----------------------------------------------------
    w("## Extensions (the paper's §8 future work, implemented + measured)")
    w("")
    from repro import (AccessKind, Compute, MS, NemesisSystem, QoSSpec,
                       SEC, Touch)
    from repro.sched.atropos import QoSSpec as _QoS

    def _scan(depth, laxity_ms):
        system = NemesisSystem()
        qos = _QoS(period_ns=100 * MS, slice_ns=80 * MS,
                   laxity_ns=laxity_ms * MS)
        data = system.filesystem.create("corpus", 4 * 1024 * 1024, qos)
        app = system.new_app("scanner", guaranteed_frames=10)
        stretch = app.new_stretch(4 * 1024 * 1024)
        driver = app.mmap_driver(data, frames=8, prefetch_depth=depth)
        app.bind(stretch, driver)

        def body():
            for va in stretch.pages():
                yield Touch(va, AccessKind.READ)
                yield Compute(2 * MS)

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=600 * SEC)
        return system.now / 1e9, thread.faults

    demand_s, demand_faults = _scan(0, 5)
    stream_s, stream_faults = _scan(4, 5)
    w("* **Stream-paging + memory-mapped files** — compute-heavy scan of")
    w("  a 4 MB mapped file with 64 KB of memory: demand paging %.2f s"
      % demand_s)
    w("  (%d faults) vs stream-paging %.2f s (%d faults): IO overlaps"
      % (demand_faults, stream_s, stream_faults))
    w("  computation and most pages never fault.")
    w("* **Global-memory balancer** — see `examples/global_balancer.py`:")
    w("  a thrashing app behind a 2-frame pool gains ~100x progress when")
    w("  the balancer redistributes free and idle optimistic frames,")
    w("  without touching any guarantee.")
    w("* **Placement** — page colouring and contiguous/superpage frame")
    w("  allocation (§6.2's 'special' requests) are implemented and")
    w("  tested (`tests/test_mm_placement.py`).")
    w("")

    # ----- Substitutions -------------------------------------------------
    w("## Substitutions and deviations")
    w("")
    w("* **Hardware**: simulated (cost-model CPU, parameterised VP3221")
    w("  disk). Documented per-component in DESIGN.md §2.")
    w("* **Absolute figures**: Table 1 microseconds are calibrated; the")
    w("  disk model reproduces regimes (cached sequential ~2 ms,")
    w("  mechanical writes ~10-13 ms), not the authors' exact drive.")
    w("* **appel2**: like the paper (\"not possible to do this precisely")
    w("  on Nemesis\"), the benchmark adapts Appel-Li semantics: pages are")
    w("  unmapped/mapped rather than protected, and mapping runs on the")
    w("  MMEntry worker path.")
    w("* **Benchmark scale**: the pytest benchmarks use 1 MB stretches")
    w("  (vs 4 MB in the paper) to shorten the populate phase; steady-")
    w("  state behaviour is identical and the CLI modules run paper")
    w("  scale.")
    w("* **OSF1 column**: the paper's published numbers (OSF1 V4.0 is not")
    w("  reproducible); clearly labelled wherever shown.")
    w("")
    return "\n".join(lines) + "\n"


def main():
    """Regenerate EXPERIMENTS.md (or the path given as argv[1])."""
    output = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    text = build()
    with open(output, "w") as handle:
        handle.write(text)
    print("wrote %s (%d lines)" % (output, text.count("\n")))


if __name__ == "__main__":
    main()
