"""Columnar storage: one typed numpy array per column plus NULL/CNULL masks.

This is the physical layer beneath :class:`~repro.data.table.Table`. Each
column holds

* ``values`` — a typed numpy array (``int64`` / ``float64`` / ``bool`` for
  the numeric types, ``object`` for strings and for integers that overflow
  64 bits),
* ``null``  — a boolean mask, True where the cell is SQL NULL,
* ``cnull`` — a boolean mask, True where the cell is crowd-unknown (CNULL).

Masked slots keep a type-consistent fill value (0 / 0.0 / False / None) so
whole-column kernels can run without branching; the masks are the source of
truth. Rows are identified by *rowid* (stable, never reused); deletion
tombstones the physical slot and the store compacts when more than half the
slots are dead. Cell reads always return plain Python values (``int``,
``float``, ``bool``, ``str``, ``None``, :data:`~repro.data.schema.CNULL`) so
nothing downstream ever sees a numpy scalar.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.data.schema import CNULL, ColumnType, Schema, is_cnull

_MIN_CAPACITY = 8
_COMPACT_MIN_DEAD = 64

#: numpy dtype per column type; STRING (and overflowing INTEGER) use object.
_DTYPES: dict[ColumnType, Any] = {
    ColumnType.INTEGER: np.int64,
    ColumnType.FLOAT: np.float64,
    ColumnType.BOOLEAN: np.bool_,
    ColumnType.STRING: object,
}

_FILL: dict[ColumnType, Any] = {
    ColumnType.INTEGER: 0,
    ColumnType.FLOAT: 0.0,
    ColumnType.BOOLEAN: False,
    ColumnType.STRING: None,
}


@dataclass
class ColumnVector:
    """One column's live cells: values plus parallel NULL/CNULL masks.

    ``values`` entries at masked positions hold the column's fill value and
    must be ignored; consumers branch on the masks, never on the fill.
    """

    values: np.ndarray
    null: np.ndarray
    cnull: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    @property
    def defined(self) -> np.ndarray:
        """Mask of cells that are neither NULL nor CNULL."""
        return ~(self.null | self.cnull)

    def cell(self, index: int) -> Any:
        """The cell at *index* as a plain Python value."""
        if self.cnull[index]:
            return CNULL
        if self.null[index]:
            return None
        value = self.values[index]
        return value if self.values.dtype == object else value.item()

    def to_list(self) -> list[Any]:
        """Materialize as Python values (None / CNULL markers included)."""
        return [self.cell(i) for i in range(len(self.values))]


class _Column:
    """Physical storage for one column (growable arrays + masks)."""

    __slots__ = ("ctype", "values", "null", "cnull")

    def __init__(self, ctype: ColumnType, capacity: int = _MIN_CAPACITY):
        self.ctype = ctype
        self.values = np.full(capacity, _FILL[ctype], dtype=_DTYPES[ctype])
        self.null = np.zeros(capacity, dtype=np.bool_)
        self.cnull = np.zeros(capacity, dtype=np.bool_)

    def grow(self, capacity: int) -> None:
        values = np.full(capacity, _FILL[self.ctype], dtype=self.values.dtype)
        values[: len(self.values)] = self.values
        self.values = values
        for attr in ("null", "cnull"):
            old = getattr(self, attr)
            fresh = np.zeros(capacity, dtype=np.bool_)
            fresh[: len(old)] = old
            setattr(self, attr, fresh)

    def promote_to_object(self) -> None:
        """Widen a numeric column to object dtype (e.g. >64-bit integers)."""
        self.values = self.values.astype(object)

    def set(self, slot: int, value: Any) -> None:
        if is_cnull(value):
            self.cnull[slot] = True
            self.null[slot] = False
            self.values[slot] = _FILL[self.ctype]
        elif value is None:
            self.null[slot] = True
            self.cnull[slot] = False
            self.values[slot] = _FILL[self.ctype]
        else:
            self.null[slot] = False
            self.cnull[slot] = False
            try:
                self.values[slot] = value
            except OverflowError:
                self.promote_to_object()
                self.values[slot] = value

    def get(self, slot: int) -> Any:
        if self.cnull[slot]:
            return CNULL
        if self.null[slot]:
            return None
        value = self.values[slot]
        return value if self.values.dtype == object else value.item()


def _encode_values(
    ctype: ColumnType, raw: Sequence[Any]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack validated Python values into (values, null, cnull) arrays."""
    n = len(raw)
    null = np.zeros(n, dtype=np.bool_)
    cnull = np.zeros(n, dtype=np.bool_)
    fill = _FILL[ctype]
    packed: list[Any] = [fill] * n
    for i, value in enumerate(raw):
        if value is None:
            null[i] = True
        elif is_cnull(value):
            cnull[i] = True
        else:
            packed[i] = value
    try:
        values = np.asarray(packed, dtype=_DTYPES[ctype])
    except OverflowError:
        values = np.asarray(packed, dtype=object)
    return values, null, cnull


class ColumnStore:
    """Growable columnar storage addressed by rowid.

    Physical slots are append-only; :meth:`delete` tombstones a slot and the
    store compacts (rebuilding the rowid→slot map) once dead slots dominate.
    Insertion order of live rows is always preserved.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._columns: dict[str, _Column] = {
            c.name: _Column(c.ctype) for c in schema.columns
        }
        self._capacity = _MIN_CAPACITY
        self._rowids = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self._alive = np.zeros(_MIN_CAPACITY, dtype=np.bool_)
        self._slot_of: dict[int, int] = {}
        self._length = 0  # physical slots in use (live + dead)
        self._dead = 0
        self._order: np.ndarray | None = None  # cached live slots, insertion order

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._length - self._dead

    def __contains__(self, rowid: int) -> bool:
        return rowid in self._slot_of

    def live_slots(self) -> np.ndarray:
        """Physical slots of live rows, in insertion order."""
        if self._order is None:
            if self._dead == 0:
                self._order = np.arange(self._length, dtype=np.int64)
            else:
                self._order = np.flatnonzero(self._alive[: self._length]).astype(np.int64)
        return self._order

    def rowids(self) -> np.ndarray:
        """Rowids of live rows, in insertion order."""
        return self._rowids[self.live_slots()]

    def iter_rowids(self) -> Iterator[int]:
        """Iterate live rowids as plain ints, in insertion order."""
        for rowid in self.rowids():
            yield int(rowid)

    def column_vector(self, name: str) -> ColumnVector:
        """The named column's live cells as a :class:`ColumnVector`.

        Zero-copy (array views) while no rows have been deleted; a fancy-
        indexed copy otherwise.
        """
        col = self._columns[name]
        order = self.live_slots()
        if self._dead == 0:
            n = self._length
            return ColumnVector(col.values[:n], col.null[:n], col.cnull[:n])
        return ColumnVector(col.values[order], col.null[order], col.cnull[order])

    # ------------------------------------------------------------------ #
    # Cell access
    # ------------------------------------------------------------------ #

    def _slot(self, rowid: int) -> int:
        return self._slot_of[rowid]

    def cell(self, rowid: int, column: str) -> Any:
        """One cell as a plain Python value (or None / CNULL)."""
        return self._columns[column].get(self._slot_of[rowid])

    def set_cell(self, rowid: int, column: str, value: Any) -> None:
        """Overwrite one cell with an already-validated value."""
        self._columns[column].set(self._slot_of[rowid], value)

    def row_dict(self, rowid: int) -> dict[str, Any]:
        """Materialize one row as a schema-ordered dict of Python values."""
        slot = self._slot_of[rowid]
        return {name: col.get(slot) for name, col in self._columns.items()}

    def column_values(self, name: str, positions: np.ndarray) -> list[Any]:
        """One column's cells at live-order *positions* as Python values.

        The values :meth:`cell` would return, gathered in one pass: NULL
        cells read ``None`` and CNULL cells read :data:`CNULL`.
        """
        col = self._columns[name]
        slots = self.live_slots()[positions]
        values = col.values[slots].tolist()
        for mask, marker in ((col.null, None), (col.cnull, CNULL)):
            hit = mask[slots]
            if hit.any():
                for i in np.flatnonzero(hit).tolist():
                    values[i] = marker
        return values

    def rows_at(self, positions: np.ndarray) -> list[dict[str, Any]]:
        """Schema-ordered row dicts for live-order *positions*.

        Equal, value for value, to calling :meth:`row_dict` once per row,
        but built one column at a time.
        """
        positions = np.asarray(positions, dtype=np.int64)
        names = list(self._columns)
        columns = [self.column_values(name, positions) for name in names]
        return [dict(zip(names, cells, strict=True)) for cells in zip(*columns, strict=True)]

    def row_has_cnull(self, rowid: int) -> bool:
        """True if any cell of the row is crowd-unknown."""
        slot = self._slot_of[rowid]
        return any(col.cnull[slot] for col in self._columns.values())

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._length + extra
        if needed <= self._capacity:
            return
        capacity = max(self._capacity, _MIN_CAPACITY)
        while capacity < needed:
            capacity *= 2
        for col in self._columns.values():
            col.grow(capacity)
        for attr, fill_dtype in (("_rowids", np.int64), ("_alive", np.bool_)):
            old = getattr(self, attr)
            fresh = np.zeros(capacity, dtype=fill_dtype)
            fresh[: len(old)] = old
            setattr(self, attr, fresh)
        self._capacity = capacity

    def append(self, rowid: int, values: dict[str, Any]) -> None:
        """Append one validated row under *rowid* (must be unused)."""
        self._ensure_capacity(1)
        slot = self._length
        for name, col in self._columns.items():
            col.set(slot, values[name])
        self._rowids[slot] = rowid
        self._alive[slot] = True
        self._slot_of[rowid] = slot
        self._length += 1
        self._order = None

    def extend(self, rowids: Sequence[int], columns: dict[str, Sequence[Any]]) -> None:
        """Bulk-append validated rows given as per-column value sequences."""
        n = len(rowids)
        if n == 0:
            return
        self._ensure_capacity(n)
        start, stop = self._length, self._length + n
        for name, col in self._columns.items():
            values, null, cnull = _encode_values(col.ctype, columns[name])
            if values.dtype == object and col.values.dtype != object:
                col.promote_to_object()
            elif col.values.dtype == object and values.dtype != object:
                values = values.astype(object)
            col.values[start:stop] = values
            col.null[start:stop] = null
            col.cnull[start:stop] = cnull
        self._rowids[start:stop] = rowids
        self._alive[start:stop] = True
        for offset, rowid in enumerate(rowids):
            self._slot_of[rowid] = start + offset
        self._length = stop
        self._order = None

    def delete(self, rowid: int) -> None:
        """Tombstone a row (compacting when dead slots dominate)."""
        slot = self._slot_of.pop(rowid)
        self._alive[slot] = False
        self._dead += 1
        self._order = None
        if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > self._length:
            self._compact()

    def clear(self) -> None:
        """Drop all rows (storage is retained for reuse)."""
        self._slot_of.clear()
        self._alive[: self._length] = False
        self._length = 0
        self._dead = 0
        self._order = None

    def _compact(self) -> None:
        """Drop tombstoned slots, preserving live insertion order."""
        keep = np.flatnonzero(self._alive[: self._length])
        n = len(keep)
        for col in self._columns.values():
            col.values[:n] = col.values[keep]
            col.null[:n] = col.null[keep]
            col.cnull[:n] = col.cnull[keep]
            col.values[n : self._length] = _FILL[col.ctype]
            col.null[n : self._length] = False
            col.cnull[n : self._length] = False
        self._rowids[:n] = self._rowids[keep]
        self._alive[:n] = True
        self._alive[n : self._length] = False
        self._length = n
        self._dead = 0
        self._slot_of = {int(rowid): slot for slot, rowid in enumerate(self._rowids[:n])}
        self._order = None

    # ------------------------------------------------------------------ #
    # Whole-table queries (mask popcounts — no row walks)
    # ------------------------------------------------------------------ #

    def cnull_count(self, columns: Iterable[str] | None = None) -> int:
        """Number of live crowd-unknown cells, from mask popcounts."""
        names = list(columns) if columns is not None else list(self._columns)
        total = 0
        for name in names:
            mask = self._columns[name].cnull[: self._length]
            if self._dead:
                mask = mask & self._alive[: self._length]
            total += int(np.count_nonzero(mask))
        return total

    def cnull_cells(self, columns: Sequence[str]) -> list[tuple[int, str]]:
        """Live (rowid, column) pairs with CNULL cells, in row-major order.

        Row-major (all of row 1's cells before row 2's) matches what a
        tuple-at-a-time walk produced, so task-generation order — and hence
        every downstream RNG draw — is unchanged.
        """
        if not columns:
            return []
        order = self.live_slots()
        if len(order) == 0:
            return []
        stacked = np.stack(
            [self._columns[name].cnull[: self._length][order] for name in columns],
            axis=1,
        )
        row_pos, col_pos = np.nonzero(stacked)
        if len(row_pos) == 0:
            return []
        rowids = self._rowids[order[row_pos]]
        return [
            (int(rowid), columns[int(c)])
            for rowid, c in zip(rowids, col_pos, strict=True)
        ]

    # ------------------------------------------------------------------ #
    # Copy
    # ------------------------------------------------------------------ #

    def copy(self) -> ColumnStore:
        """Deep copy (arrays and maps); rowids and order are preserved."""
        clone = ColumnStore(self.schema)
        clone._capacity = self._capacity
        clone._length = self._length
        clone._dead = self._dead
        clone._rowids = self._rowids.copy()
        clone._alive = self._alive.copy()
        clone._slot_of = dict(self._slot_of)
        clone._order = None
        for name, col in self._columns.items():
            fresh = _Column(col.ctype)
            fresh.values = col.values.copy()
            fresh.null = col.null.copy()
            fresh.cnull = col.cnull.copy()
            clone._columns[name] = fresh
        return clone


__all__ = ["ColumnStore", "ColumnVector"]
