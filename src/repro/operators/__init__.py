"""Crowd-powered operators: filter, join, sort, top-k, count, collect, fill."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "categorize": ("CategorizeResult", "CrowdCategorize"),
        "collect": (
            "CollectResult", "CrowdCollect", "bind_zipf_knowledge", "chao84_estimate",
            "chao92_estimate", "good_turing_coverage",
        ),
        "count": ("CountResult", "CrowdCount"),
        "fill": ("CrowdFill", "FillResult"),
        "filter": ("NO", "YES", "AdaptiveFilter", "CrowdFilter", "FilterResult", "FixedKFilter"),
        "findfixverify": ("FfvDocument", "FfvResult", "FindFixVerify", "proofreading_dataset"),
        "join": ("CrowdJoin", "JoinResult", "crossing_join"),
        "plan": ("CrowdPlanner", "PlanResult", "optimal_path", "path_score"),
        "schema_matching": ("CrowdSchemaMatcher", "MatchingResult"),
        "skyline": ("CrowdSkyline", "SkylineResult", "true_skyline"),
        "sort": (
            "CrowdComparator", "SortResult", "all_pairs_sort", "hybrid_sort", "merge_sort_crowd",
            "rating_sort",
        ),
        "topk": ("TopKResult", "expected_tournament_cost", "topk_tournament", "tournament_max"),
    },
)
