"""The per-row GROUP BY, kept as a test oracle.

:meth:`repro.lang.executor.Executor._run_aggregate` codes the group keys,
orders the rows by code and reduces contiguous slices. This is the
grouping it replaced: one Python list of row indexes per group, opened in
first-seen order, and every aggregate filtered and type-checked group by
group. ``tests/test_aggregate_oracle.py`` checks that the two agree on
rows (by ``repr``) and on errors (type and text). The reductions
themselves are :meth:`Executor._aggregate_value`, shared by both.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.data.schema import CNULL
from repro.errors import ExecutionError
from repro.lang.executor import Executor, group_key
from repro.lang.planner import AggregateNode


def reference_aggregate(node: AggregateNode, rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The rows *node* returns over its child's *rows*, grouped per row."""
    n = len(rows)
    inputs = {
        spec.column: [row[spec.column] for row in rows]
        for spec in node.aggregates
        if spec.column is not None
    }

    def compute(indices: Sequence[int]) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for spec in node.aggregates:
            if spec.column is None:
                out[spec.output_name] = len(indices)
                continue
            column = inputs[spec.column]
            values = [
                v
                for v in (column[i] for i in indices)
                if v is not None and v is not CNULL
            ]
            if spec.func in ("SUM", "AVG") and any(
                not issubclass(t, (int, float)) or issubclass(t, bool)
                for t in {type(v) for v in values}
            ):
                raise ExecutionError(
                    f"{spec.func} requires numeric values in {spec.column!r}"
                )
            out[spec.output_name] = Executor._aggregate_value(spec.func, values)
        return out

    if node.group_by is None:
        return [compute(range(n))]
    buckets: dict[Any, list[int]] = {}
    for i, row in enumerate(rows):
        key = row[node.group_by]
        bucket = buckets.get(key)
        if bucket is None:  # a new key, or a NaN: normalize before opening
            bucket = buckets.setdefault(group_key(key), [])
        bucket.append(i)
    return [
        {node.group_by: key, **compute(buckets[key])}
        for key in sorted(buckets, key=repr)
    ]
