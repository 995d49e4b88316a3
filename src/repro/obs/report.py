"""Trace analysis: parse a JSONL trace and render the run report.

``python -m repro trace-report FILE`` lands here. The report answers the
questions the tutorial's four pillars pose about a finished run: where
did each CrowdSQL statement's time and money go (one row per
``statement`` span, one operator table per statement, and the run's
totals), where did they go per operator and per span (per-operator and
slowest spans), how reliable was execution (batch retry hotspots), and
how did inference behave (EM iterations and convergence deltas).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Any, TextIO

from repro.errors import ConfigurationError

SpanDict = dict[str, Any]


def load_spans(path: str, warn: "TextIO | None" = None) -> list[SpanDict]:
    """Parse a JSONL trace file into span dicts (emission order).

    Corrupt or truncated lines — a killed run's last write, a partial
    flush — are **skipped with a one-line warning** on *warn* (stderr by
    default) rather than raising, so the rest of the trace still renders.
    Only an unreadable file is an error.
    """
    warn = warn if warn is not None else sys.stderr
    spans: list[SpanDict] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    print(
                        f"warning: {path}:{number}: skipping non-JSON trace line "
                        f"({exc.msg})",
                        file=warn,
                    )
                    continue
                if not isinstance(record, dict) or "span_id" not in record:
                    print(
                        f"warning: {path}:{number}: skipping non-span record",
                        file=warn,
                    )
                    continue
                spans.append(record)
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace file {path!r}: {exc}") from exc
    return spans


def build_tree(spans: list[SpanDict]) -> dict[int | None, list[SpanDict]]:
    """children-by-parent-id index (roots under key ``None``)."""
    children: dict[int | None, list[SpanDict]] = defaultdict(list)
    for span in spans:
        children[span.get("parent_id")].append(span)
    return dict(children)


def _spans_named(spans: list[SpanDict], prefix: str) -> list[SpanDict]:
    return [s for s in spans if str(s.get("name", "")).startswith(prefix)]


def _descendants(
    children: dict[int | None, list[SpanDict]], span_id: int
) -> list[SpanDict]:
    """Every span and annotation below *span_id* in the tree."""
    found: list[SpanDict] = []
    stack = list(children.get(span_id, []))
    while stack:
        span = stack.pop()
        found.append(span)
        stack.extend(children.get(span["span_id"], []))
    return found


def _operator_rows(spans: list[SpanDict]) -> list[dict[str, Any]]:
    grouped: dict[str, list[SpanDict]] = defaultdict(list)
    for span in _spans_named(spans, "operator."):
        if span.get("kind") == "span":
            grouped[span["name"]].append(span)
    rows = []
    for name in sorted(grouped):
        group = grouped[name]
        accuracies = [
            s["tags"]["accuracy"] for s in group if "accuracy" in s.get("tags", {})
        ]
        rows.append(
            {
                "operator": name.removeprefix("operator."),
                "runs": len(group),
                "items": sum(s.get("tags", {}).get("items", 0) for s in group),
                "wall_s": sum(s.get("duration", 0.0) for s in group),
                "cost": sum(s.get("tags", {}).get("cost", 0.0) for s in group),
                "answers": sum(s.get("tags", {}).get("answers", 0) for s in group),
                "accuracy": (
                    f"{sum(accuracies) / len(accuracies):.3f}" if accuracies else "-"
                ),
            }
        )
    return rows


def _batch_rows(spans: list[SpanDict]) -> tuple[list[dict[str, Any]], list[SpanDict]]:
    batches = [s for s in spans if s.get("name") == "batch" and s.get("kind") == "span"]
    if not batches:
        return [], []
    tags = [b.get("tags", {}) for b in batches]
    summary = [
        {
            "batches": len(batches),
            "dispatched": sum(t.get("dispatched", 0) for t in tags),
            "retried": sum(t.get("retried", 0) for t in tags),
            "timed_out": sum(t.get("timed_out", 0) for t in tags),
            "abandoned": sum(t.get("abandoned", 0) for t in tags),
            "sim_makespan_s": sum(t.get("makespan", 0.0) for t in tags),
        }
    ]
    hotspots = sorted(
        (b for b in batches if b.get("tags", {}).get("retried", 0) > 0),
        key=lambda b: b["tags"].get("retried", 0),
        reverse=True,
    )[:3]
    return summary, hotspots


def _em_rows(spans: list[SpanDict]) -> list[dict[str, Any]]:
    iteration_deltas: dict[int | None, list[float]] = defaultdict(list)
    for note in spans:
        if note.get("name") == "em.iteration":
            iteration_deltas[note.get("parent_id")].append(
                float(note.get("tags", {}).get("delta", 0.0))
            )
    grouped: dict[str, dict[str, Any]] = {}
    for span in _spans_named(spans, "truth."):
        if span.get("kind") != "span":
            continue
        name = span["name"].removeprefix("truth.")
        entry = grouped.setdefault(
            name, {"method": name, "runs": 0, "iterations": 0, "final_deltas": []}
        )
        entry["runs"] += 1
        deltas = iteration_deltas.get(span["span_id"], [])
        entry["iterations"] += len(deltas)
        if deltas:
            entry["final_deltas"].append(deltas[-1])
    rows = []
    for name in sorted(grouped):
        entry = grouped[name]
        deltas = entry.pop("final_deltas")
        entry["mean_final_delta"] = sum(deltas) / len(deltas) if deltas else 0.0
        rows.append(entry)
    return rows


def _statement_sections(spans: list[SpanDict]) -> list[str]:
    """The per-statement table, each statement's operator table, and totals.

    Statements are numbered in the order the trace holds them: a REPL runs
    each statement as its own script, so the span's ``index`` tag (the
    script position a resume skips by) restarts at 0 for every one.
    """
    from repro.experiments.report import format_table

    statements = [
        s for s in spans if s.get("name") == "statement" and s.get("kind") == "span"
    ]
    if not statements:
        return []
    children = build_tree(spans)
    rows, operator_tables = [], []
    for index, span in enumerate(statements):
        tags = span.get("tags", {})
        below = _descendants(children, span["span_id"])
        label = str(tags.get("statement", ""))[:48]
        sim_start, sim_end = span.get("sim_start"), span.get("sim_end")
        rows.append(
            {
                "#": index,
                "statement": label,
                "wall_s": span.get("duration", 0.0),
                "sim_s": (
                    sim_end - sim_start
                    if sim_start is not None and sim_end is not None
                    else 0.0
                ),
                "rows": tags.get("rows", "-"),
                "hits": tags.get("published", 0),
                "reused": tags.get("reused", 0),
                "hedges": tags.get("hedges", 0),
                "cancelled": tags.get("cancelled", 0),
                "cost": tags.get("cost", 0),
                "em_iters": sum(1 for s in below if s.get("name") == "em.iteration"),
            }
        )
        operators = _operator_rows(below)
        if operators:
            operator_tables.append(
                format_table(
                    operators,
                    columns=["operator", "runs", "items", "wall_s", "cost", "answers"],
                    title=f"statement #{index} ({label}) operators",
                    float_format="{:.4f}",
                )
            )
    tagged = [s.get("tags", {}) for s in statements]
    line = (
        f"totals: {len(rows)} statements, "
        f"{sum(r['wall_s'] for r in rows):.3f}s wall, "
        f"{sum(r['sim_s'] for r in rows):.1f}s simulated, "
        f"{sum(r['hits'] for r in rows)} HITs published, "
        f"{sum(r['reused'] for r in rows)} answers reused, "
        f"spend {sum(r['cost'] for r in rows):.4f}, "
        f"{sum(r['em_iters'] for r in rows)} EM iterations"
    )
    hedges = sum(r["hedges"] for r in rows)
    if hedges:
        won = sum(t.get("hedges_won", 0) for t in tagged)
        line += f", {hedges} hedges ({won} won)"
    cancelled = sum(r["cancelled"] for r in rows)
    if cancelled:
        saved = sum(t.get("cancel_refunded", 0) for t in tagged)
        line += f", {int(cancelled)} HITs cancelled (saved {saved:.4f})"
    return [
        format_table(rows, title="per-statement profile", float_format="{:.4f}"),
        *operator_tables,
        line,
    ]


def render_report(spans: list[SpanDict]) -> str:
    """The full human-readable trace report for *spans*."""
    # Imported lazily: experiments pulls in the platform package, which in
    # turn imports repro.obs — a cycle at module-import time.
    from repro.experiments.report import format_table

    if not spans:
        return "(empty trace)"
    real = [s for s in spans if s.get("kind") == "span"]
    annotations = [s for s in spans if s.get("kind") == "annotation"]
    roots = [s for s in real if s.get("parent_id") is None]
    sections: list[str] = []

    root_line = ", ".join(
        f"{r.get('name')} ({r.get('duration', 0.0):.3f}s wall)" for r in roots
    )
    sections.append(
        f"trace: {len(real)} spans, {len(annotations)} annotations; "
        f"root: {root_line or '(none)'}"
    )
    sections.extend(_statement_sections(spans))

    operator_rows = _operator_rows(spans)
    if operator_rows:
        sections.append(
            format_table(
                operator_rows,
                columns=[
                    "operator", "runs", "items", "wall_s", "cost", "answers", "accuracy"
                ],
                title="per-operator breakdown",
                float_format="{:.4f}",
            )
        )

    batch_summary, hotspots = _batch_rows(spans)
    if batch_summary:
        sections.append(
            format_table(batch_summary, title="batch runtime", float_format="{:.2f}")
        )
    if hotspots:
        rows = [
            {
                "batch": h["tags"].get("index", "?"),
                "retried": h["tags"].get("retried", 0),
                "timed_out": h["tags"].get("timed_out", 0),
                "abandoned": h["tags"].get("abandoned", 0),
            }
            for h in hotspots
        ]
        sections.append(format_table(rows, title="retry hotspots"))

    em_rows = _em_rows(spans)
    if em_rows:
        sections.append(
            format_table(
                em_rows,
                columns=["method", "runs", "iterations", "mean_final_delta"],
                title="truth inference (EM)",
                float_format="{:.2e}",
            )
        )

    slowest = sorted(real, key=lambda s: s.get("duration", 0.0), reverse=True)[:5]
    rows = [
        {
            "span": s.get("name"),
            "wall_s": s.get("duration", 0.0),
            "sim_s": (
                (s["sim_end"] - s["sim_start"])
                if s.get("sim_end") is not None and s.get("sim_start") is not None
                else ""
            ),
        }
        for s in slowest
    ]
    sections.append(format_table(rows, title="slowest spans", float_format="{:.4f}"))
    return "\n\n".join(sections)


def report_from_file(path: str) -> str:
    """Load *path* and render its report (the trace-report CLI body)."""
    return render_report(load_spans(path))
