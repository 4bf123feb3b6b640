"""Plain-text rendering of experiment results.

The paper's figures are plots; we regenerate the underlying data and
render it as aligned ASCII tables and timelines. The USD scheduler
trace rendering mirrors the bottom plots of Figures 7/8: one row per
client, filled boxes for transactions, lines for lax time, arrows for
new allocations.
"""

from repro.sim.units import fmt_time


def table(headers, rows, title=None):
    """Render an aligned ASCII table.

    ``rows`` is a list of sequences; cells are str()-ed. Returns a
    string (no trailing newline).
    """
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def fmt_row(row):
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()

    sep = "  ".join("-" * width for width in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(cells[0]))
    lines.append(sep)
    lines.extend(fmt_row(row) for row in cells[1:])
    return "\n".join(lines)


def usd_trace_text(trace, start, end, bucket=None):
    """Render a USD trace window as per-client timelines.

    Each client gets a row of characters, one per ``bucket`` of time
    (default: window/100): ``#`` = serving a transaction, ``-`` = lax
    time, ``^`` = a new allocation arrived in that bucket, ``.`` = not
    scheduled.
    """
    bucket = bucket or max((end - start) // 100, 1)
    nbuckets = (end - start + bucket - 1) // bucket
    clients = trace.clients()
    lines = ["USD trace %s .. %s (one column = %s)"
             % (fmt_time(start), fmt_time(end), fmt_time(bucket))]
    for client in clients:
        row = ["."] * nbuckets
        for event in trace.filter(client=client, start=None, end=None):
            if event.end <= start or event.time >= end:
                continue
            first = max((event.time - start) // bucket, 0)
            last = min((max(event.end - 1, event.time) - start) // bucket,
                       nbuckets - 1)
            if event.kind == "txn":
                mark = "#"
            elif event.kind == "lax":
                mark = "-"
            elif event.kind == "slack":
                mark = "+"
            elif event.kind == "alloc":
                mark = "^"
            else:
                continue
            for i in range(int(first), int(last) + 1):
                if mark == "^" and row[i] != ".":
                    continue  # do not overwrite service marks
                row[i] = mark
        lines.append("%12s |%s|" % (client, "".join(row)))
    lines.append("%12s  (# txn, - lax, ^ alloc, + slack)" % "")
    return "\n".join(lines)
