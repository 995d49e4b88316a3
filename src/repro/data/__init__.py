"""Relational substrate: schemas, columnar tables, CNULL, expressions, catalog."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "columnstore": ("ColumnStore", "ColumnVector"),
        "csvio": (),
        "database": ("Database",),
        "expressions": (
            "CROWD_UNKNOWN", "And", "Arithmetic", "ColumnRef", "Comparison", "CrowdPredicate",
            "Expression", "InList", "IsCNull", "IsNull", "Like", "Literal", "Not", "Or", "col",
            "conjoin", "contains_crowd_predicate", "evaluate_mask", "evaluate_tristate",
            "evaluate_vector", "is_crowd_unknown", "lit", "split_conjuncts", "translate_like",
        ),
        "persistence": ("load_database", "save_database"),
        "schema": ("CNULL", "Column", "ColumnType", "Schema", "SchemaBuilder", "is_cnull"),
        "table": ("Row", "Table", "make_table"),
    },
)
