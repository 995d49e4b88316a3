"""Rule-based optimizer for CrowdSQL logical plans.

Crowd answers cost real money, so the optimizer's prime directive — the
CrowdOP insight — is **machine work before crowd work**:

1. *Split* conjunctive filters into separate nodes.
2. *Classify* each conjunct as machine or crowd.
3. *Push* machine filters below crowd filters (and below crowd fills when
   the filter doesn't read a crowd column) so every free predicate shrinks
   the row set before any task is purchased. A machine conjunct above a
   machine join sinks onto the input that owns all its columns when that
   input is machine-only, so the hash join probes a filtered side (Qurk's
   filter-before-join); purchases above the join see the same rows in the
   same order. Conjuncts spanning both inputs stay above the join, and
   nothing sinks below a crowd join. One error path moves with it: a
   pushed ill-typed conjunct raises whenever any input row reaches it,
   even when the join, or the conjuncts left above it, would have
   removed every such row.
4. *Order* consecutive crowd filters by estimated cost per eliminated row:
   cheaper, more selective crowd predicates run first.

The cost model is deliberately simple (selectivity defaults per predicate
kind, cardinality from table sizes) but is enough to reproduce the
plan-quality gaps the T7 benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.database import Database
from repro.data.expressions import (
    Expression,
    contains_crowd_predicate,
    split_conjuncts,
)
from repro.lang.planner import (
    AggregateNode,
    CrowdFilterNode,
    CrowdJoinNode,
    CrowdOrderNode,
    DistinctNode,
    FillNode,
    FilterNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    OrderNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    crowd_predicates_of,
    machine_only,
)

#: Default selectivity guesses per predicate shape.
MACHINE_SELECTIVITY = 0.4
CROWD_EQUAL_SELECTIVITY = 0.15
CROWD_FILTER_SELECTIVITY = 0.5
CROWD_ORDER_SELECTIVITY = 0.5


@dataclass
class CostModel:
    """Estimates used to order crowd predicates."""

    redundancy: int = 3
    task_price: float = 0.01

    def crowd_filter_cost_per_row(self, predicate: Expression) -> float:
        """Expected spend to evaluate this predicate on one row."""
        n_crowd = max(1, len(crowd_predicates_of(predicate)))
        return n_crowd * self.redundancy * self.task_price

    def selectivity(self, predicate: Expression) -> float:
        """Estimated surviving-row fraction for *predicate*."""
        crowds = crowd_predicates_of(predicate)
        if not crowds:
            return MACHINE_SELECTIVITY
        kinds = {c.kind for c in crowds}
        if kinds == {"equal"}:
            return CROWD_EQUAL_SELECTIVITY
        if kinds == {"filter"}:
            return CROWD_FILTER_SELECTIVITY
        return CROWD_ORDER_SELECTIVITY

    def rank_key(self, predicate: Expression) -> float:
        """Lower = run earlier: cost weighted by how little it filters."""
        return self.crowd_filter_cost_per_row(predicate) * self.selectivity(predicate)


@dataclass
class Optimizer:
    """Applies the rewrite rules to a logical plan."""

    database: Database
    cost_model: CostModel = field(default_factory=CostModel)

    def optimize(self, plan: LogicalPlan) -> LogicalPlan:
        """Return a rewritten plan (machine-first, crowd-cost ordered)."""
        root = self._rewrite(plan.root)
        notes = list(plan.notes) + ["optimized: machine-first, crowd-cost ordering"]
        return LogicalPlan(root=root, notes=notes)

    # ------------------------------------------------------------------ #

    def _rewrite(self, node: PlanNode) -> PlanNode:
        # Bottom-up: rewrite children first.
        if isinstance(node, (FilterNode, CrowdFilterNode)):
            child = self._rewrite(node.child)
            return self._rebuild_filters(child, [node.predicate])
        if isinstance(node, FillNode):
            return FillNode(self._rewrite(node.child), node.table, node.columns)
        if isinstance(node, JoinNode):
            return JoinNode(
                self._rewrite(node.left), self._rewrite(node.right), node.condition
            )
        if isinstance(node, CrowdJoinNode):
            return CrowdJoinNode(
                self._rewrite(node.left), self._rewrite(node.right), node.condition
            )
        if isinstance(node, ProjectNode):
            return ProjectNode(self._rewrite(node.child), node.columns)
        if isinstance(node, DistinctNode):
            return DistinctNode(self._rewrite(node.child))
        if isinstance(node, OrderNode):
            return OrderNode(self._rewrite(node.child), node.keys)
        if isinstance(node, CrowdOrderNode):
            return CrowdOrderNode(self._rewrite(node.child), node.column, node.ascending)
        if isinstance(node, LimitNode):
            return LimitNode(self._rewrite(node.child), node.limit)
        if isinstance(node, AggregateNode):
            return AggregateNode(
                self._rewrite(node.child), node.aggregates, node.group_by
            )
        return node

    def _rebuild_filters(self, child: PlanNode, predicates: list[Expression]) -> PlanNode:
        """Split, classify, and stack filters machine-first above *child*."""
        conjuncts: list[Expression] = []
        for predicate in predicates:
            conjuncts.extend(split_conjuncts(predicate))

        machine = [c for c in conjuncts if not contains_crowd_predicate(c)]
        crowd = [c for c in conjuncts if contains_crowd_predicate(c)]

        # Collapse adjacent pre-existing filters below (idempotent re-runs).
        while isinstance(child, (FilterNode, CrowdFilterNode)):
            inner = split_conjuncts(child.predicate)
            machine.extend(c for c in inner if not contains_crowd_predicate(c))
            crowd.extend(c for c in inner if contains_crowd_predicate(c))
            child = child.child

        # Machine filters may additionally sink below a FillNode when they
        # don't read any column the fill resolves — filtering first means
        # fewer CNULL cells bought.
        plan = child
        sinkable: list[Expression] = []
        stacked: list[Expression] = []
        if isinstance(plan, FillNode):
            fill_cols = set(plan.columns)
            for conjunct in machine:
                if conjunct.columns() & fill_cols:
                    stacked.append(conjunct)
                else:
                    sinkable.append(conjunct)
            inner: PlanNode = plan.child
            for conjunct in sinkable:
                inner = FilterNode(inner, conjunct)
            plan = FillNode(inner, plan.table, plan.columns)
        elif isinstance(plan, JoinNode):
            plan, stacked = self._push_into_join(plan, machine)
        else:
            stacked = machine

        for conjunct in stacked:
            plan = FilterNode(plan, conjunct)

        # Crowd filters: cheapest effective first.
        for conjunct in sorted(crowd, key=self.cost_model.rank_key):
            plan = CrowdFilterNode(plan, conjunct)
        return plan

    def _push_into_join(
        self, join: JoinNode, conjuncts: list[Expression]
    ) -> tuple[PlanNode, list[Expression]]:
        """Sink each machine conjunct onto the machine-only join input that
        owns all its columns; returns the new join and the conjuncts that
        stay above it.
        """
        left_cols = self._columns_of(join.left)
        right_cols = self._columns_of(join.right)
        if not conjuncts or left_cols is None or right_cols is None or left_cols & right_cols:
            # Shared names make the join raise its clash error; keep that first.
            return join, conjuncts
        left_movable, right_movable = machine_only(join.left), machine_only(join.right)
        to_left: list[Expression] = []
        to_right: list[Expression] = []
        kept: list[Expression] = []
        for conjunct in conjuncts:
            names = conjunct.columns()
            if names and left_movable and names <= left_cols:
                to_left.append(conjunct)
            elif names and right_movable and names <= right_cols:
                to_right.append(conjunct)
            else:
                kept.append(conjunct)
        left = self._rebuild_filters(join.left, to_left) if to_left else join.left
        right = self._rebuild_filters(join.right, to_right) if to_right else join.right
        return JoinNode(left, right, join.condition), kept

    def _columns_of(self, node: PlanNode) -> set[str] | None:
        """Output column names of a join input, or None when not derivable."""
        if isinstance(node, ScanNode):
            if node.table not in self.database:
                return None
            return set(self.database.table(node.table).schema.column_names)
        if isinstance(node, (JoinNode, CrowdJoinNode)):
            left, right = self._columns_of(node.left), self._columns_of(node.right)
            return None if left is None or right is None else left | right
        if isinstance(node, (ProjectNode, AggregateNode)):
            return None
        children = node.children()
        return self._columns_of(children[0]) if len(children) == 1 else None


def estimate_plan_cost(
    plan: LogicalPlan,
    database: Database,
    cost_model: CostModel | None = None,
) -> float:
    """Predicted crowd spend of a plan (EXPLAIN's cost column).

    Walks bottom-up propagating cardinality estimates and charging crowd
    operators per estimated input row (or row pair for crowd joins).
    """
    model = cost_model or CostModel()

    def visit(node: PlanNode) -> tuple[float, float]:
        """Returns (estimated cardinality, estimated crowd cost so far)."""
        if isinstance(node, ScanNode):
            return float(len(database.table(node.table))), 0.0
        if isinstance(node, FillNode):
            card, cost = visit(node.child)
            cnull_cells = database.table(node.table).cnull_cells()
            referenced = [c for c in cnull_cells if c[1] in node.columns]
            cost += len(referenced) * model.redundancy * model.task_price
            return card, cost
        if isinstance(node, FilterNode):
            card, cost = visit(node.child)
            return card * MACHINE_SELECTIVITY, cost
        if isinstance(node, CrowdFilterNode):
            card, cost = visit(node.child)
            cost += card * model.crowd_filter_cost_per_row(node.predicate)
            return card * model.selectivity(node.predicate), cost
        if isinstance(node, JoinNode):
            left_card, left_cost = visit(node.left)
            right_card, right_cost = visit(node.right)
            return left_card * right_card * MACHINE_SELECTIVITY, left_cost + right_cost
        if isinstance(node, CrowdJoinNode):
            left_card, left_cost = visit(node.left)
            right_card, right_cost = visit(node.right)
            pairs = left_card * right_card
            cost = left_cost + right_cost + pairs * model.redundancy * model.task_price
            return pairs * CROWD_EQUAL_SELECTIVITY, cost
        if isinstance(node, CrowdOrderNode):
            card, cost = visit(node.child)
            # merge-sort comparisons ~ n log2 n
            import math

            comparisons = card * max(1.0, math.log2(max(card, 2.0)))
            cost += comparisons * model.redundancy * model.task_price
            return card, cost
        if isinstance(node, AggregateNode):
            card, cost = visit(node.child)
            # Grouped output cardinality is data-dependent; guess sqrt.
            return (card ** 0.5 if node.group_by else 1.0), cost
        if isinstance(node, (OrderNode, DistinctNode, ProjectNode)):
            return visit(node.children()[0])
        if isinstance(node, LimitNode):
            card, cost = visit(node.child)
            return min(card, float(node.limit)), cost
        children = node.children()
        if children:
            return visit(children[0])
        return 0.0, 0.0

    _card, cost = visit(plan.root)
    return cost
