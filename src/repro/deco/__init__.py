"""Deco-style declarative crowdsourcing: conceptual relations, fetch rules,
resolution rules, and fetch-until-satisfied query semantics."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "fetch": ("AnchorFetchRule", "DependentFetchRule", "FetchRuleSet"),
        "model": (
            "ConceptualRelation", "DependentGroup", "dedup_exact", "first_resolution",
            "majority_resolution", "mean_resolution", "single_column_group",
        ),
        "query": ("DecoQueryEngine", "DecoQueryResult"),
    },
)
