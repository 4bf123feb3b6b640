"""Regenerate EXPERIMENTS.md from live runs and check the paper's claims.

Usage: ``python -m repro.exp.regenerate [--scale paper] [output-path]``

Runs every experiment once and writes the paper-vs-measured record.
This keeps the documented numbers honest: they are whatever the code
in the working tree actually produces. Each qualitative claim of the
paper (Table 1's shape, Figures 7-9, the ablations and stream paging)
is checked against those same runs and listed in the record's "Claims
checked" table; the command exits 1 and names every claim that does
not hold.

Figures 7 and 8 run at benchmark scale by default (1 MB stretches,
15 s windows): that is EXPERIMENTS.md. ``--scale paper`` runs them at
the paper's 4 MB stretches and 30 s windows (:class:`PagingConfig`'s
defaults) and writes ``results/EXPERIMENTS-paper.md``; it never
writes EXPERIMENTS.md. Table 1, Figure 9 and the ablations have one
configuration, except that roll-over's with-leg is the Figure 8 run.

Expected runtime: about 12 s at benchmark scale, 20 s at paper scale.
For a profile, run it under ``python -m cProfile -o out.pstats -m
repro.exp.regenerate``.
"""

import argparse
import os
import sys

from repro.exp import ablations, fig7, fig8, fig9, microbench, report
from repro.exp.common import (MB, PagingConfig, run_paging_experiment,
                              small_config)

#: Where ``--scale paper`` writes its record unless given a path.
PAPER_OUTPUT = os.path.join("results", "EXPERIMENTS-paper.md")


def _fmt_ratio_map(ratios):
    return ", ".join("%s %.2f" % (name.replace("pager-", ""), value)
                     for name, value in sorted(ratios.items(),
                                               key=lambda kv: -kv[1]))


def build(iterations=100, paging=small_config()):
    """Run every experiment and build the EXPERIMENTS.md text.

    ``paging`` is the configuration Figures 7 and 8 (and roll-over's
    with-leg, which is Figure 8's run) use: benchmark scale by
    default, ``PagingConfig()`` for the paper's. Returns ``(text,
    failed)``: ``failed`` names each claim that does not hold.
    """
    lines = []
    w = lines.append
    claims = []

    def claim(name, measured, holds):
        claims.append((name, measured, bool(holds)))

    w("# EXPERIMENTS — paper vs. measured")
    w("")
    w("Regenerated by `python -m repro.exp.regenerate` from live runs of")
    w("the harness; Figures 7 and 8 ran with %d MB stretches and %g s"
      % (paging.stretch_bytes // MB, paging.measure_sec))
    w("windows. All runs are deterministic. The complete CLI — including")
    w("the `sweep` (every scenario mission) and `report --metrics`")
    w("surfaces not shown in these tables — is documented in README.md")
    w('("Running experiments"); the performance plane that keeps these')
    w("runs affordable is docs/PERFORMANCE.md.")
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
    w("* " + microbench.SEG_VS_PAGED
      % (measured["seg_first_touch"], measured["paged_first_touch"],
         measured["seg_over_paged"]) + " (not in the paper; see "
      "`repro.regimes`)")
    w("")
    paper = microbench.PAPER_NEMESIS
    osf1 = microbench.OSF1_REFERENCE
    for key in ("dirty", "prot1", "prot100", "trap", "appel1", "appel2"):
        claim("Table 1 %s within 2x of the paper's %.2f us"
              % (key, paper[key]),
              "%.2f us" % measured[key], result.within(key, factor=2.0))
    claim("Table 1 dirty < 1 us", "%.2f us" % measured["dirty"],
          measured["dirty"] < 1.0)
    pd_gap = abs(measured["prot1_pd"] - measured["prot100_pd"])
    claim("Table 1 (un)prot via the protection domain is flat "
          "(1 vs 100 pages < 0.05 us apart)",
          "%.3f us apart" % pd_gap, pd_gap < 0.05)
    claim("Table 1 page-table prot100 > 10x prot1",
          "%.1fx" % (measured["prot100"] / measured["prot1"]),
          measured["prot100"] > 10 * measured["prot1"])
    for key in ("trap", "appel1", "appel2", "prot1"):
        claim("Table 1 %s beats OSF1's %.2f us" % (key, osf1[key]),
              "%.2f us" % measured[key], measured[key] < osf1[key])
    claim("Table 1 idempotent (un)prot < prot1",
          "%.2f vs %.2f us" % (measured["prot_idempotent"],
                               measured["prot1"]),
          measured["prot_idempotent"] < measured["prot1"])
    claim("Table 1 guarded page table 2-5x slower on dirty",
          "%.1fx" % measured["dirty_guarded_factor"],
          2.0 <= measured["dirty_guarded_factor"] <= 5.0)

    # ----- Figure 7 ------------------------------------------------------
    w("## Figure 7 — paging in (QoS firewalling)")
    w("")
    w("Three self-paging apps, 2 frames / 16 MB swap each, guarantees")
    w("100/50/25 ms per 250 ms, laxity 10 ms, no slack. Workload: demand-")
    w("zero pass, dirty pass, then a sequential read loop (benchmark scale")
    w("uses 1 MB stretches; steady state is identical).")
    w("")
    result7 = fig7.run(paging)
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
    w(report.usd_trace_text(result7.system.usd_trace, start,
                            start + 1_000_000_000))
    w("```")
    w("")
    top, mid, low = (paging.app_name(s) for s in paging.slices_ms)
    ratios7 = result7.ratios
    claim("Figure 7 40% client ratio in [3.5, 4.5]",
          "%.2f" % ratios7[top], 3.5 <= ratios7[top] <= 4.5)
    claim("Figure 7 20% client ratio in [1.7, 2.3]",
          "%.2f" % ratios7[mid], 1.7 <= ratios7[mid] <= 2.3)
    claim("Figure 7 10% client ratio is 1.0",
          "%.2f" % ratios7[low], ratios7[low] == 1.0)
    claim("Figure 7 every client's mean transaction < 4 ms",
          "max %.2f ms" % max(means), max(means) < 4.0)
    claim("Figure 7 longest lax interval <= 10 ms",
          "%.2f ms" % result7.max_lax_ms,
          result7.max_lax_ms <= paging.laxity_ms + 1e-9)
    seconds7 = (result7.window[1] - result7.window[0]) / 1e9
    received = []
    for slice_ms in paging.slices_ms:
        stats = result7.txn_stats[paging.app_name(slice_ms)]
        used = (stats["service_ms"] + stats["lax_ms"]) / 1000
        received.append(used / (slice_ms / paging.period_ms * seconds7))
    claim("Figure 7 every client's service + lax >= 0.9 of its guarantee",
          "min %.3f" % min(received), min(received) >= 0.9)

    # ----- Figure 8 ------------------------------------------------------
    w("## Figure 8 — paging out")
    w("")
    w("Same setup with the 'forgetful' stretch driver: every fault")
    w("demand-zeroes, every eviction writes (pure page-out load).")
    w("")
    result8 = fig8.run(paging)
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
    bw8 = result8.bandwidth_mbit
    claim("Figure 8 bandwidth ordered 40% > 20% > 10% > 0",
          "%.2f > %.2f > %.2f Mbit/s" % (bw8[top], bw8[mid], bw8[low]),
          bw8[top] > bw8[mid] > bw8[low] > 0)
    claim("Figure 8 40% client ratio in [3, 5]",
          "%.2f" % result8.ratios[top], 3.0 <= result8.ratios[top] <= 5.0)
    claim("Figure 8 20% client ratio in [1.5, 2.5]",
          "%.2f" % result8.ratios[mid], 1.5 <= result8.ratios[mid] <= 2.5)
    claim("Figure 8 every client's mean transaction in [8, 16] ms",
          "%.1f-%.1f ms" % (min(means8), max(means8)),
          8.0 <= min(means8) and max(means8) <= 16.0)
    claim("Figure 8 40% client bandwidth < 4 Mbit/s",
          "%.2f Mbit/s" % bw8[top], bw8[top] < 4.0)
    served = [s for _period, s, _next in evidence]
    debited = [n for _period, _served, n in evidence]
    claim("Figure 8 roll-over: overrun periods exist, each served > 25 ms "
          "and followed by an allocation < 25 ms",
          "%d periods, served >= %.1f ms, next <= %.1f ms"
          % (len(evidence), min(served, default=0.0),
             max(debited, default=0.0)),
          evidence and min(served) > 25.0 and max(debited) < 25.0)

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
    claim("Figure 9 FS client streams > 5 Mbit/s alone",
          "%.2f Mbit/s" % result9.solo_mbit, result9.solo_mbit > 5.0)
    claim("Figure 9 FS retention >= 0.93", "%.3f" % result9.retention,
          result9.retention >= 0.93)
    slowest = min(result9.pager_mbit.values())
    claim("Figure 9 every pager > 0.1 Mbit/s", "min %.2f Mbit/s" % slowest,
          slowest > 0.1)

    # ----- Ablations -----------------------------------------------------
    w("## Ablations (design choices the paper calls out)")
    w("")
    # Each ablation leg that repeats a run made here reuses it: one 10 s
    # read loop serves laxity's and the paging crosstalk's USD leg,
    # Figure 8 is roll-over's with-leg and Figure 9 the FS crosstalk's.
    read10 = run_paging_experiment("read-loop",
                                   small_config(measure_sec=10.0))
    lax = ablations.laxity(with_laxity=read10)
    worst = max(lax.collapse_factor(name) for name in lax.with_laxity)
    w("* **Laxity (the short-block problem, §6.7)** — with l=0 every")
    w("  paging client degrades to ~1 transaction per period: throughput")
    w("  collapses up to %.0fx (%.2f -> %.2f Mbit/s for the 40%% client)."
      % (worst, lax.with_laxity["pager-40%"],
         lax.without_laxity["pager-40%"]))
    least = min(lax.collapse_factor(name) for name in lax.with_laxity)
    claim("A1 without laxity every client collapses >= 5x",
          "min %.1fx" % least, least >= 5.0)
    fastest = max(lax.without_laxity.values())
    claim("A1 without laxity every client <= 0.5 Mbit/s",
          "max %.2f Mbit/s" % fastest, fastest <= 0.5)
    ro = ablations.rollover(with_rollover=result8)
    worst_with = max(ro.usage_with.values())
    worst_without = max(ro.usage_without.values())
    w("* **Roll-over accounting** — fraction of guarantee consumed under")
    w("  overrunning (~12 ms) transactions: <= %.3f with roll-over; up to"
      % worst_with)
    w("  %.3f without (clients deterministically exceed their guarantee)."
      % worst_without)
    claim("A2 with roll-over every client's usage <= 1.02 of its guarantee",
          "max %.3f" % worst_with, worst_with <= 1.02)
    claim("A2 without roll-over some client's usage > 1.05",
          "max %.3f" % worst_without, worst_without > 1.05)
    ct = ablations.crosstalk_paging(usd=read10)
    w("* **No disk QoS (FCFS baseline)** — the Figure 7 workload yields")
    w("  ratios %s under the USD but %s under FCFS: differentiated"
      % (_fmt_ratio_map(ct.usd_ratios), _fmt_ratio_map(ct.fcfs_ratios)))
    w("  service is impossible without scheduling.")
    usd_top = max(ct.usd_ratios.values())
    claim("A3 USD top ratio >= 3.5", "%.2f" % usd_top, usd_top >= 3.5)
    fcfs = ct.fcfs_ratios.values()
    claim("A3 every FCFS ratio in [0.8, 1.3]",
          "%.2f-%.2f" % (min(fcfs), max(fcfs)),
          0.8 <= min(fcfs) and max(fcfs) <= 1.3)
    fs = ablations.crosstalk_fs(usd=result9)
    w("* **Figure 9 without QoS** — FS-client retention drops from "
      "%.0f%% (USD) to %.0f%% (FCFS)."
      % (100 * fs.usd_retention, 100 * fs.fcfs_retention))
    claim("A3 FS retention >= 0.93 under the USD",
          "%.3f" % fs.usd_retention, fs.usd_retention >= 0.93)
    claim("A3 FS retention <= 0.85 under FCFS",
          "%.3f" % fs.fcfs_retention, fs.fcfs_retention <= 0.85)
    gap = fs.usd_retention - fs.fcfs_retention
    claim("A3 FS retention gap (USD - FCFS) >= 0.1", "%.3f" % gap,
          gap >= 0.1)
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
    claim("A3 shared external pager degrades the light client >= 5x",
          "%.1fx" % ep.degradation, ep.degradation >= 5.0)
    claim("A3 own USD guarantee <= half the shared-pager latency",
          "%.1f vs %.1f ms" % (ep.usd_latency_ms, ep.shared_latency_ms),
          ep.usd_latency_ms <= ep.shared_latency_ms / 2)
    claim("A3 shared pager burns CPU accounted to nobody (> 0)",
          "%.0f ms" % ep.pager_cpu_ms, ep.pager_cpu_ms > 0)

    # ----- Extensions -----------------------------------------------------
    w("## Extensions (the paper's §8 future work, implemented + measured)")
    w("")
    sp = ablations.stream_paging()
    w("* **Stream-paging + memory-mapped files** — compute-heavy scan of")
    w("  a 4 MB mapped file with 64 KB of memory: demand paging %.2f s"
      % (sp.demand_ns / 1e9))
    w("  (%d faults) vs stream-paging %.2f s (%d faults): IO overlaps"
      % (sp.demand_faults, sp.stream_ns / 1e9, sp.stream_faults))
    w("  computation and most pages never fault.")
    claim("X1 stream paging < 0.65x demand paging's time",
          "%.3fx" % (sp.stream_ns / sp.demand_ns),
          sp.stream_ns < 0.65 * sp.demand_ns)
    claim("X1 stream faults < demand faults // 4",
          "%d vs %d" % (sp.stream_faults, sp.demand_faults),
          sp.stream_faults < sp.demand_faults // 4)
    claim("X1 zero laxity: stream paging < 0.2x demand paging's time",
          "%.3fx" % (sp.stream_nolax_ns / sp.demand_nolax_ns),
          sp.stream_nolax_ns < sp.demand_nolax_ns / 5)
    w("* **Global-memory balancer** — see `examples/global_balancer.py`:")
    w("  a thrashing app behind a 2-frame pool gains ~100x progress when")
    w("  the balancer redistributes free and idle optimistic frames,")
    w("  without touching any guarantee.")
    w("* **Placement** — page colouring and contiguous/superpage frame")
    w("  allocation (§6.2's 'special' requests) are implemented and")
    w("  tested (`tests/test_mm_placement.py`).")
    w("")

    # ----- Claims ---------------------------------------------------------
    w("## Claims checked")
    w("")
    w("Each qualitative claim of the paper, checked against the runs")
    w("above; `python -m repro.exp.regenerate` exits 1 if any does not")
    w("hold.")
    w("")
    w("| claim | measured | holds |")
    w("|---|---|---|")
    for name, value, holds in claims:
        w("| %s | %s | %s |" % (name, value, "yes" if holds else "no"))
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
    w("* **Benchmark scale**: EXPERIMENTS.md runs Figures 7 and 8 with")
    w("  1 MB stretches and 15 s windows (vs 4 MB and 30 s in the paper)")
    w("  to shorten the populate phase; steady-state behaviour is")
    w("  identical. `python -m repro.exp.regenerate --scale paper` runs")
    w("  them at the paper's parameters and checks the same claims.")
    w("* **OSF1 column**: the paper's published numbers (OSF1 V4.0 is not")
    w("  reproducible); clearly labelled wherever shown.")
    w("")
    failed = [name for name, _value, holds in claims if not holds]
    return "\n".join(lines) + "\n", failed


def main(argv=None):
    """Regenerate EXPERIMENTS.md, or the paper-scale record.

    Returns 1 if any of the paper's claims does not hold, else 0.
    """
    parser = argparse.ArgumentParser(prog="python -m repro.exp.regenerate")
    parser.add_argument("--scale", choices=("benchmark", "paper"),
                        default="benchmark",
                        help="paper: Figures 7 and 8 at 4 MB stretches and "
                             "30 s windows, into %s" % PAPER_OUTPUT)
    parser.add_argument("output", nargs="?")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.scale == "benchmark":
        output = args.output or "EXPERIMENTS.md"
        text, failed = build()
    else:
        output = args.output or PAPER_OUTPUT
        if os.path.abspath(output) == os.path.abspath("EXPERIMENTS.md"):
            parser.error("EXPERIMENTS.md is the benchmark-scale record")
        os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
        text, failed = build(paging=PagingConfig())
    with open(output, "w") as handle:
        handle.write(text)
    print("wrote %s (%d lines)" % (output, text.count("\n")))
    for name in failed:
        print("claim failed: %s" % name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
