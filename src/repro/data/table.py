"""In-memory tables with crowd-aware semantics, on columnar storage.

A :class:`Table` stores rows conforming to a :class:`~repro.data.schema.Schema`.
Physically the data lives in a :class:`~repro.data.columnstore.ColumnStore`
(one typed numpy array per column plus NULL/CNULL bitmasks); the :class:`Row`
objects handed out by the table are thin *views* over that store, so the
historical tuple-at-a-time API — ``scan``, ``lookup``, ``row``, cell access —
keeps working unchanged while whole-column operations (vectorized predicate
evaluation, mask popcounts, hash joins) run at numpy speed.

The table tracks which cells are crowd-unknown (CNULL) so the engine can
enumerate outstanding crowd work cheaply (:meth:`Table.cnull_cells`, now a
mask scan instead of a full-table walk).
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.data.columnstore import ColumnStore, ColumnVector
from repro.data.expressions import Expression, evaluate_mask
from repro.data.schema import CNULL, Schema, is_cnull
from repro.errors import KeyViolationError, TypeMismatchError, UnknownColumnError


class Row:
    """A single tuple of a table.

    A lightweight view over the table's column store that supports
    attribute-free, ordered access and keeps a stable ``rowid`` assigned by
    its table (unique within the table, never reused). Reads always reflect
    the store's current state, exactly like the dict-backed rows of old.
    """

    __slots__ = ("rowid", "_store")

    def __init__(self, rowid: int, store: ColumnStore):
        self.rowid = rowid
        self._store = store

    def __getitem__(self, column: str) -> Any:
        try:
            return self._store.cell(self.rowid, column)
        except KeyError:
            raise UnknownColumnError(f"row has no column {column!r}") from None

    def __contains__(self, column: str) -> bool:
        return column in self._store.schema

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.schema.column_names)

    def __len__(self) -> int:
        return len(self._store.schema)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self.as_dict() == other.as_dict()
        if isinstance(other, dict):
            return self.as_dict() == other
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"Row#{self.rowid}({inner})"

    def get(self, column: str, default: Any = None) -> Any:
        """Value of *column*, or *default* when absent."""
        if column not in self._store.schema:
            return default
        return self._store.cell(self.rowid, column)

    def as_dict(self) -> dict[str, Any]:
        """Materialize the row's values as a plain dict."""
        return self._store.row_dict(self.rowid)

    def values(self) -> tuple[Any, ...]:
        """Cell values in schema order."""
        return tuple(self._store.row_dict(self.rowid).values())

    def has_cnull(self) -> bool:
        """True if any cell is crowd-unknown."""
        return self._store.row_has_cnull(self.rowid)


class Table:
    """A named, schema-validated collection of rows.

    Args:
        name: Table name (used by the catalog and CrowdSQL).
        schema: The table's schema.
    """

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self._store = ColumnStore(schema)
        self._next_rowid = 1
        self._pk_index: dict[tuple[Any, ...], int] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Row]:
        store = self._store
        for rowid in store.iter_rowids():
            yield Row(rowid, store)

    def __repr__(self) -> str:
        return f"Table<{self.name}, {len(self)} rows>"

    @property
    def rows(self) -> list[Row]:
        """All rows in insertion order."""
        return list(self)

    @property
    def store(self) -> ColumnStore:
        """The underlying columnar store (read-mostly; mutate via the table)."""
        return self._store

    def row(self, rowid: int) -> Row:
        """Return the row with the given rowid."""
        if rowid not in self._store:
            raise KeyError(f"table {self.name!r} has no rowid {rowid}")
        return Row(rowid, self._store)

    def rowids(self) -> np.ndarray:
        """Rowids of all live rows, in insertion order."""
        return self._store.rowids()

    def column_vector(self, name: str) -> ColumnVector:
        """One column's cells (insertion order) as arrays + masks."""
        self.schema.column(name)
        return self._store.column_vector(name)

    def _pk_tuple(self, values: dict[str, Any]) -> tuple[Any, ...] | None:
        if not self.schema.primary_key:
            return None
        return tuple(values[k] for k in self.schema.primary_key)

    def _check_pk(self, pk: tuple[Any, ...]) -> None:
        if any(v is None or is_cnull(v) for v in pk):
            raise KeyViolationError(
                f"table {self.name!r}: primary key columns cannot be NULL/CNULL"
            )
        if pk in self._pk_index:
            raise KeyViolationError(
                f"table {self.name!r}: duplicate primary key {pk!r}"
            )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def insert(self, values: dict[str, Any]) -> Row:
        """Validate and insert one row; returns the stored :class:`Row`.

        Crowd columns omitted from *values* default to CNULL; primary-key
        duplicates raise :class:`KeyViolationError`.
        """
        validated = self.schema.validate_row(values)
        pk = self._pk_tuple(validated)
        if pk is not None:
            self._check_pk(pk)
        rowid = self._next_rowid
        self._next_rowid += 1
        self._store.append(rowid, validated)
        if pk is not None:
            self._pk_index[pk] = rowid
        return Row(rowid, self._store)

    def insert_many(self, rows: Iterable[dict[str, Any]]) -> list[Row]:
        """Insert several rows; returns the stored rows."""
        return [self.insert(r) for r in rows]

    def insert_columns(self, columns: dict[str, Sequence[Any]]) -> np.ndarray:
        """Bulk-insert column-oriented data; returns the new rowids.

        Semantically identical to calling :meth:`insert` once per row (same
        validation, same defaults for omitted columns, same primary-key
        rules) but validates column-at-a-time, skipping per-row dict
        shuffling — the fast path for loaders and benchmarks.
        """
        for key in columns:
            if key not in self.schema:
                raise UnknownColumnError(
                    f"no column {key!r}; available: {', '.join(self.schema.column_names)}"
                )
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")
        n = lengths.pop() if lengths else 0
        if n == 0:
            return np.empty(0, dtype=np.int64)

        validated: dict[str, list[Any]] = {}
        for col in self.schema.columns:
            if col.name in columns:
                raw = list(columns[col.name])
                # Fast path: exact-type cells skip the per-value validator;
                # anything else (None, CNULL, coercions, errors) goes through
                # Column.validate for byte-identical semantics and messages.
                fast = _FAST_TYPE[col.ctype.value]
                for i, value in enumerate(raw):
                    if type(value) is not fast:
                        raw[i] = col.validate(value)
                validated[col.name] = raw
            elif col.crowd:
                validated[col.name] = [CNULL] * n
            elif col.nullable:
                validated[col.name] = [None] * n
            else:
                raise TypeMismatchError(f"missing value for NOT NULL column {col.name!r}")

        rowids = np.arange(self._next_rowid, self._next_rowid + n, dtype=np.int64)
        if self.schema.primary_key:
            key_cols = [validated[k] for k in self.schema.primary_key]
            new_keys: dict[tuple[Any, ...], int] = {}
            for offset, pk in enumerate(zip(*key_cols, strict=True)):
                self._check_pk(pk)
                if pk in new_keys:
                    raise KeyViolationError(
                        f"table {self.name!r}: duplicate primary key {pk!r}"
                    )
                new_keys[pk] = int(rowids[offset])
            self._pk_index.update(new_keys)
        self._next_rowid += n
        self._store.extend([int(r) for r in rowids], validated)
        return rowids

    def update_cell(self, rowid: int, column: str, value: Any) -> None:
        """Set one cell, validating against the column type.

        This is the hook crowd answers flow through when resolving CNULLs;
        primary-key columns cannot be updated.
        """
        if rowid not in self._store:
            raise KeyError(f"table {self.name!r} has no rowid {rowid}")
        self._store.set_cell(rowid, column, self.validate_update(column, value))

    def validate_update(self, column: str, value: Any) -> Any:
        """*value* validated for an update of *column*, touching no row.

        Raises as :meth:`update_cell` would: unknown column, primary-key
        column, or a value the column type rejects.
        """
        col = self.schema.column(column)
        if column in self.schema.primary_key:
            raise KeyViolationError(f"cannot update primary key column {column!r}")
        return col.validate(value)

    def delete(self, rowid: int) -> None:
        """Remove the row with the given rowid."""
        if rowid not in self._store:
            raise KeyError(f"table {self.name!r} has no rowid {rowid}")
        if self.schema.primary_key:
            pk = tuple(self._store.cell(rowid, k) for k in self.schema.primary_key)
            self._pk_index.pop(pk, None)
        self._store.delete(rowid)

    def clear(self) -> None:
        """Remove all rows (rowids are not reused)."""
        self._store.clear()
        self._pk_index.clear()

    # ------------------------------------------------------------------ #
    # Query helpers
    # ------------------------------------------------------------------ #

    def lookup(self, **key_values: Any) -> Row | None:
        """Primary-key lookup; returns None if absent.

        All primary-key columns must be supplied as keyword arguments.
        """
        if set(key_values) != set(self.schema.primary_key):
            raise KeyViolationError(
                f"lookup requires exactly the primary key columns "
                f"{self.schema.primary_key!r}"
            )
        pk = tuple(key_values[k] for k in self.schema.primary_key)
        rowid = self._pk_index.get(pk)
        return Row(rowid, self._store) if rowid is not None else None

    def scan(
        self, predicate: Callable[[Row], bool] | Expression | None = None
    ) -> Iterator[Row]:
        """Yield rows, optionally filtered by *predicate*.

        A plain callable is applied row-at-a-time as before; an
        :class:`~repro.data.expressions.Expression` is evaluated vectorized
        over whole columns (rows where it is definitely True survive —
        NULL and CNULL outcomes are excluded, matching SQL semantics).
        """
        if predicate is None:
            yield from self
        elif isinstance(predicate, Expression):
            store = self._store
            for rowid in self.filter_rowids(predicate):
                yield Row(int(rowid), store)
        else:
            for row in self:
                if predicate(row):
                    yield row

    def filter_rowids(self, expression: Expression) -> np.ndarray:
        """Rowids (insertion order) where *expression* is definitely True.

        The vectorized equivalent of
        ``[r.rowid for r in table if expression.evaluate(r) is True]``.
        """
        n = len(self._store)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        names = expression.columns()
        for name in names:
            self.schema.column(name)
        batch = {name: self._store.column_vector(name) for name in names}
        mask = evaluate_mask(expression, batch, n)
        return self._store.rowids()[mask]

    def cnull_cells(self) -> list[tuple[int, str]]:
        """Enumerate (rowid, column) pairs whose value is crowd-unknown.

        Row-major order (matching the historical full-table walk) so crowd
        task generation — and every downstream RNG draw — is unchanged.
        """
        crowd_cols = [c.name for c in self.schema.crowd_columns]
        return self._store.cnull_cells(crowd_cols)

    def cnull_count(self) -> int:
        """Number of unresolved crowd cells (mask popcount, no row walk)."""
        return self._store.cnull_count([c.name for c in self.schema.crowd_columns])

    def completeness(self) -> float:
        """Fraction of crowd-column cells that are resolved (non-CNULL).

        Returns 1.0 for tables without crowd columns or without rows.
        """
        crowd_cols = self.schema.crowd_columns
        total = len(self) * len(crowd_cols)
        if total == 0:
            return 1.0
        return 1.0 - self.cnull_count() / total

    def to_dicts(self, columns: Collection[str] | None = None) -> list[dict[str, Any]]:
        """Materialize all rows as plain dicts (CNULL markers preserved).

        With *columns*, each dict holds only those cells, in schema order
        (:meth:`~repro.data.columnstore.ColumnStore.rows_at`).
        """
        return self._store.rows_at(np.arange(len(self._store), dtype=np.int64), columns)

    def copy(self, name: str | None = None) -> Table:
        """Independent copy sharing nothing with the original.

        Rowids are preserved (clone.row(i) corresponds to self.row(i)), as is
        the next-rowid counter — checkpoints and caches that reference rowids
        stay valid against a clone.
        """
        clone = Table(name or self.name, self.schema)
        clone._store = self._store.copy()
        clone._next_rowid = self._next_rowid
        clone._pk_index = dict(self._pk_index)
        return clone


#: Exact Python type per column type for the bulk-insert fast path.
_FAST_TYPE = {"string": str, "integer": int, "float": float, "boolean": bool}


def make_table(name: str, schema: Schema, rows: Iterable[dict[str, Any]] = ()) -> Table:
    """Convenience constructor: build a table and bulk-insert *rows*."""
    table = Table(name, schema)
    table.insert_many(rows)
    return table


__all__ = ["Row", "Table", "make_table", "CNULL"]
