"""Rendering helpers: versioned JSON documents, csv, markdown, plain tables.

Row-based formats take a list of dicts sharing one key set; values are
rendered with a fixed scalar convention (booleans lowercase, None empty)
so identical data always yields identical bytes.
"""

from __future__ import annotations

import csv
import io
import json

SCHEMA = "zclass-kit/1"

FORMATS = ("json", "csv", "md", "table")


def to_json(payload: dict) -> str:
    doc = {"schema": SCHEMA, **payload}
    return json.dumps(doc, sort_keys=True, indent=2, default=str)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    head = list(rows[0])
    writer.writerow(head)
    for row in rows:
        writer.writerow([_cell(row.get(k)) for k in head])
    return buf.getvalue().rstrip("\n")


def to_md(rows: list[dict]) -> str:
    if not rows:
        return ""
    head = list(rows[0])
    lines = [
        "| " + " | ".join(head) + " |",
        "| " + " | ".join("---" for _ in head) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell(row.get(k)) for k in head) + " |")
    return "\n".join(lines)


def to_table(rows: list[dict]) -> str:
    if not rows:
        return ""
    head = list(rows[0])
    grid = [head] + [[_cell(row.get(k)) for k in head] for row in rows]
    widths = [max(len(r[i]) for r in grid) for i in range(len(head))]
    out = []
    for idx, r in enumerate(grid):
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if idx == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def render(fmt: str, payload: dict, rows: list[dict]) -> str:
    if fmt == "json":
        return to_json(payload)
    if fmt == "csv":
        return to_csv(rows)
    if fmt == "md":
        return to_md(rows)
    if fmt == "table":
        return to_table(rows)
    raise ValueError(f"unknown format {fmt!r}: choose from {', '.join(FORMATS)}")


def experiment_rows(summaries: list[dict]) -> list[dict]:
    """Flatten experiment summaries into the id/params/verdict table shape."""
    return [
        {
            "id": s["id"],
            "params": " ".join(f"{k}={_cell(v)}" for k, v in sorted(s["params"].items())),
            "predicted": _cell_obj(s["predicted"]),
            "computed": _cell_obj(s["computed"]),
            "verdict": s["verdict"],
        }
        for s in summaries
    ]


def _cell_obj(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, default=str)
    return _cell(value)
