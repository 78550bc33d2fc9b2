"""Plain-text table rendering for experiment output.

The benchmarks print the same rows/series the paper's figures and tables
report; this module keeps the formatting in one place.
"""


def format_table(headers, rows, title=None):
    """Render an aligned ASCII table."""
    columns = [str(h) for h in headers]
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in columns]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value):
    if isinstance(value, float):
        if abs(value) >= 1000:
            return "%.0f" % value
        return "%.2f" % value
    return str(value)


def missed_latency_row(name, summary):
    """One Table 1/2/3 style row: Mean %, Mean Sec., Max %, Max Sec."""
    mean_pct, mean_sec, max_pct, max_sec = summary.row()
    return [name, mean_pct, mean_sec, max_pct, max_sec]


MISSED_HEADERS = ("Approach", "Mean %", "Mean Sec.", "Max %", "Max Sec.")
