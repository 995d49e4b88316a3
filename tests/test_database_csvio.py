"""Unit tests for repro.data.database and repro.data.csvio."""

import io

import pytest

from repro.data.csvio import (
    CNULL_TOKEN,
    read_csv,
    table_from_csv_string,
    table_to_csv_string,
    write_csv,
)
from repro.data.database import Database
from repro.data.schema import SchemaBuilder, is_cnull
from repro.errors import DuplicateTableError, UnknownTableError


@pytest.fixture
def db(people_schema):
    database = Database("testdb")
    database.create_table(
        "people",
        people_schema,
        rows=[{"name": "ann", "age": 30}, {"name": "bob", "age": 25, "hometown": "rome"}],
    )
    return database


class TestDatabase:
    def test_create_and_lookup(self, db):
        assert len(db.table("people")) == 2

    def test_duplicate_rejected(self, db, people_schema):
        with pytest.raises(DuplicateTableError):
            db.create_table("people", people_schema)

    def test_if_not_exists_returns_existing(self, db, people_schema):
        table = db.create_table("people", people_schema, if_not_exists=True)
        assert len(table) == 2

    def test_unknown_table(self, db):
        with pytest.raises(UnknownTableError):
            db.table("ghosts")

    def test_drop(self, db):
        db.drop_table("people")
        assert "people" not in db

    def test_drop_missing_raises(self, db):
        with pytest.raises(UnknownTableError):
            db.drop_table("ghosts")

    def test_drop_if_exists_silent(self, db):
        db.drop_table("ghosts", if_exists=True)

    def test_pending_crowd_cells(self, db):
        pending = db.pending_crowd_cells()
        assert pending == {"people": [(1, "hometown")]}

    def test_completeness(self, db):
        assert db.completeness() == pytest.approx(0.5)

    def test_completeness_empty_db(self):
        assert Database().completeness() == 1.0

    def test_iteration_and_len(self, db):
        assert len(db) == 1
        assert [t.name for t in db] == ["people"]

    def test_table_names(self, db):
        assert db.table_names == ("people",)


class TestCsvIO:
    def test_roundtrip_preserves_cnull(self, db, people_schema):
        table = db.table("people")
        text = table_to_csv_string(table)
        assert CNULL_TOKEN in text
        back = table_from_csv_string(text, "people2", people_schema)
        assert is_cnull(back.row(1)["hometown"])
        assert back.row(2)["hometown"] == "rome"

    def test_roundtrip_preserves_null(self, people_schema):
        from repro.data.table import make_table

        table = make_table("t", people_schema, rows=[{"name": "x"}])
        back = table_from_csv_string(table_to_csv_string(table), "t2", people_schema)
        assert back.row(1)["age"] is None

    def test_header_mismatch_rejected(self, people_schema):
        with pytest.raises(ValueError, match="header"):
            read_csv(io.StringIO("a,b\n1,2\n"), "t", people_schema)

    def test_empty_file_rejected(self, people_schema):
        with pytest.raises(ValueError, match="empty"):
            read_csv(io.StringIO(""), "t", people_schema)

    def test_bad_field_count_rejected(self, people_schema):
        text = "name,age,hometown\nann,30\n"
        with pytest.raises(ValueError, match="line 2"):
            read_csv(io.StringIO(text), "t", people_schema)

    def test_boolean_parsing(self):
        schema = SchemaBuilder().string("k").boolean("flag").build()
        text = "k,flag\na,true\nb,0\nc,YES\n"
        table = read_csv(io.StringIO(text), "t", schema)
        assert [r["flag"] for r in table] == [True, False, True]

    def test_boolean_garbage_rejected(self):
        schema = SchemaBuilder().string("k").boolean("flag").build()
        with pytest.raises(ValueError):
            read_csv(io.StringIO("k,flag\na,maybe\n"), "t", schema)

    def test_write_to_path(self, tmp_path, db):
        target = tmp_path / "out.csv"
        write_csv(db.table("people"), target)
        assert target.read_text().startswith("name,age,hometown")

    def test_numeric_types_roundtrip(self):
        schema = SchemaBuilder().integer("i").float("f").build()
        from repro.data.table import make_table

        table = make_table("t", schema, rows=[{"i": 7, "f": 2.5}])
        back = table_from_csv_string(table_to_csv_string(table), "t", schema)
        assert back.row(1)["i"] == 7
        assert back.row(1)["f"] == pytest.approx(2.5)
