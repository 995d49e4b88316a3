"""CrowdSQL: lexer, parser, planner, optimizer, executor, session."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "ast_nodes": (
            "ColumnDef", "CreateTable", "CrowdOrderSpec", "DropTable", "Insert", "JoinClause",
            "OrderSpec", "ParsedScript", "Select",
        ),
        "executor": ("CrowdOracle", "ExecutionStats", "Executor", "QueryResult"),
        "interpreter": ("CrowdSQLSession", "StatementResult"),
        "lexer": ("Token", "TokenType", "tokenize"),
        "optimizer": ("CostModel", "Optimizer", "estimate_plan_cost"),
        "parser": ("parse", "parse_one"),
        "planner": ("LogicalPlan", "build_plan", "count_crowd_operators"),
        "streaming": ("StreamingExecutor",),
    },
)
