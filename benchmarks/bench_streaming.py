"""B9 — Streaming pipelined execution: makespan vs a per-row loop.

Two plans over a listings table (>= 10k rows in full mode):

* **filter -> join**: a crowd filter's survivors feed a machine hash
  join. The reference is a plain per-row loop written here: one one-task
  ``platform.collect`` per new question, in row order, so its simulated
  makespan is the sum of per-row makespans. The barrier executor plans
  the statement's questions in row order and buys them in one scheduler
  run that saturates all 8 lanes. The plan has no LIMIT, so the
  pipelined executor runs the same barrier path: both give bit-identical
  rows, stats and makespan at the same seed, heterogeneous pool
  included, and the reference loop buys exactly the same answers.
* **filter -> topk**: ORDER BY ... LIMIT K above the crowd filter. The
  pipelined executor streams candidates in final order and, once K rows
  have been emitted, cancels every still-pending HIT upstream through
  the scheduler's cancel seam — publishing a fraction of the barrier's
  HITs and reporting the avoided spend. (This path pre-sorts its
  planning order, so a perfect-accuracy pool pins row equality.)

Gates:

* pipelined simulated statement makespan improves >= 1.5x over the
  per-row reference loop at 8 lanes, and the barrier executor reports
  the pipelined makespan;
* the reference loop's rows and spend equal the executors';
* pipelined rows identical to barrier rows at the same seed (both plans);
* TOP-K publishes measurably fewer HITs (<= half), with cancellations
  and avoided spend reported;
* a pipelined replay under the same seed is bit-identical.
"""

import json

from conftest import bench_artifact, run_once

from repro.data.database import Database
from repro.data.expressions import And, Comparison, CrowdPredicate, col, lit
from repro.data.schema import SchemaBuilder
from repro.experiments.harness import quick_mode
from repro.lang.executor import CrowdOracle, Executor
from repro.lang.planner import (
    CrowdFilterNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    OrderNode,
    ScanNode,
)
from repro.lang.streaming import StreamingExecutor
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote
from repro.workers.pool import WorkerPool

N_ROWS = 1500 if quick_mode() else 10000
N_CATALOG = 40 if quick_mode() else 200
TOP_K = 20
REDUNDANCY = 3
POOL_SIZE = 24
MAX_PARALLEL = 8
SEED = 23
MAKESPAN_FLOOR = 1.5
QUESTION = "Is this item in stock?"


def _database() -> Database:
    database = Database()
    listings = (
        SchemaBuilder()
        .integer("listing_id")
        .string("item")
        .integer("cat")
        .integer("price")
        .build()
    )
    database.create_table(
        "listings",
        listings,
        rows=[
            {
                "listing_id": i,
                "item": f"item {i}",
                "cat": i % N_CATALOG,
                "price": (i * 37) % 1000,
            }
            for i in range(N_ROWS)
        ],
    )
    catalog = SchemaBuilder().integer("ref").string("label").build()
    database.create_table(
        "catalog",
        catalog,
        rows=[{"ref": i, "label": f"category {i}"} for i in range(N_CATALOG)],
    )
    return database


def _oracle() -> CrowdOracle:
    return CrowdOracle(
        filter_fn=lambda value, _q: int(str(value).split()[-1]) % 7 == 0
    )


def _crowd_filter() -> CrowdPredicate:
    return CrowdPredicate("filter", (col("item"),), question=QUESTION)


def _join_plan() -> LogicalPlan:
    # Machine prefix prunes ~half the rows vectorized; the crowd filter's
    # survivors feed the machine hash join.
    predicate = And(Comparison(">", col("price"), lit(499)), _crowd_filter())
    root = JoinNode(
        CrowdFilterNode(ScanNode("listings"), predicate),
        ScanNode("catalog"),
        Comparison("=", col("cat"), col("ref")),
    )
    return LogicalPlan(root=root)


def _topk_plan() -> LogicalPlan:
    root = LimitNode(
        OrderNode(
            CrowdFilterNode(ScanNode("listings"), _crowd_filter()),
            (("price", False), ("listing_id", True)),
        ),
        TOP_K,
    )
    return LogicalPlan(root=root)


def _platform(accuracy: float | None = None) -> SimulatedPlatform:
    if accuracy is None:
        pool = WorkerPool.heterogeneous(
            POOL_SIZE, accuracy_low=0.75, accuracy_high=0.97, seed=SEED
        )
    else:
        pool = WorkerPool.uniform(POOL_SIZE, accuracy, seed=SEED)
    return SimulatedPlatform(
        pool,
        seed=SEED + 1,
        batch=BatchConfig(batch_size=32, max_parallel=MAX_PARALLEL, seed=SEED + 2),
    )


def _per_row_join() -> dict:
    """The filter -> join plan as a plain per-row loop.

    Rows in table order; a row passing ``price > 499`` asks its question
    through a one-task ``platform.collect`` unless an earlier row asked it,
    and its majority vote decides the row. Survivors join the catalog on
    ``cat = ref`` in left order.
    """
    database = _database()
    platform = _platform()
    filter_fn = _oracle().filter_fn
    verdicts: dict[str, bool] = {}
    survivors = []
    for row in database.table("listings").to_dicts():
        if not row["price"] > 499:
            continue
        question = f"{QUESTION} — value: {row['item']}"
        if question not in verdicts:
            task = Task(
                TaskType.SINGLE_CHOICE,
                question=question,
                options=("yes", "no"),
                truth="yes" if filter_fn(row["item"], QUESTION) else "no",
            )
            answers = platform.collect([task], redundancy=REDUNDANCY)[task.task_id]
            truths = MajorityVote().infer({task.task_id: answers}).truths
            verdicts[question] = truths[task.task_id] == "yes"
        if verdicts[question]:
            survivors.append(row)
    catalog = {row["ref"]: row for row in database.table("catalog").to_dicts()}
    return {
        "rows": [{**row, **catalog[row["cat"]]} for row in survivors if row["cat"] in catalog],
        "makespan": platform.scheduler.simulated_clock,
        "published": platform.stats.tasks_published,
        "cost": platform.stats.cost_spent,
        "questions": len(verdicts),
    }


def _run(plan: LogicalPlan, pipelined: bool, accuracy: float | None = None) -> dict:
    """One fresh platform + database per strategy; returns rows + accounting."""
    platform = _platform(accuracy)
    executor_cls = StreamingExecutor if pipelined else Executor
    executor = executor_cls(
        _database(), platform, redundancy=REDUNDANCY, oracle=_oracle()
    )
    result = executor.execute(plan)
    return {
        "rows": result.rows,
        "makespan": platform.scheduler.simulated_clock,
        "published": platform.stats.tasks_published,
        "cost": platform.stats.cost_spent,
        "questions": result.stats.crowd_questions,
        "answers": result.stats.crowd_answers,
        "cancelled": result.stats.tasks_cancelled,
        "cost_avoided": result.stats.cost_avoided,
    }


def test_b9_streaming_pipeline(benchmark, report):
    def measure() -> dict:
        join_reference = _per_row_join()
        join_barrier = _run(_join_plan(), pipelined=False)
        join_pipelined = _run(_join_plan(), pipelined=True)
        join_replay = _run(_join_plan(), pipelined=True)
        topk_barrier = _run(_topk_plan(), pipelined=False, accuracy=1.0)
        topk_pipelined = _run(_topk_plan(), pipelined=True, accuracy=1.0)
        return {
            "join_reference": join_reference,
            "join_barrier": join_barrier,
            "join_pipelined": join_pipelined,
            "join_replay": join_replay,
            "topk_barrier": topk_barrier,
            "topk_pipelined": topk_pipelined,
        }

    values = run_once(benchmark, measure)
    join_reference = values["join_reference"]
    join_barrier = values["join_barrier"]
    join_pipelined = values["join_pipelined"]
    topk_barrier = values["topk_barrier"]
    topk_pipelined = values["topk_pipelined"]
    join_speedup = join_reference["makespan"] / join_pipelined["makespan"]
    hits_saved = topk_barrier["published"] - topk_pipelined["published"]

    report.table(
        [
            {
                "plan": plan,
                "mode": mode,
                "makespan_s": r["makespan"],
                "hits": r["published"],
                "cost": r["cost"],
                "cancelled": r["cancelled"],
                "rows": len(r["rows"]),
            }
            for plan, mode, r in (
                ("filter->join", "per-row loop", {**join_reference, "cancelled": 0}),
                ("filter->join", "barrier", join_barrier),
                ("filter->join", "pipelined", join_pipelined),
                ("filter->topk", "barrier", topk_barrier),
                ("filter->topk", "pipelined", topk_pipelined),
            )
        ],
        title=(
            f"B9: streaming pipeline vs barrier vs per-row loop ({N_ROWS} rows, "
            f"{MAX_PARALLEL} lanes, redundancy {REDUNDANCY})"
        ),
    )
    report.note(
        f"join makespan speedup over the per-row loop {join_speedup:.2f}x "
        "(bit-identical rows + stats); "
        f"top-{TOP_K} saved {hits_saved} HITs "
        f"({topk_pipelined['cancelled']} cancelled, "
        f"spend avoided {topk_pipelined['cost_avoided']:.4f})"
    )

    out_path = bench_artifact("BENCH_streaming.json")
    with open(out_path, "w") as fh:
        json.dump(
            {
                "workload": {
                    "rows": N_ROWS,
                    "catalog": N_CATALOG,
                    "top_k": TOP_K,
                    "redundancy": REDUNDANCY,
                    "pool": POOL_SIZE,
                    "max_parallel": MAX_PARALLEL,
                    "quick": quick_mode(),
                },
                "join": {
                    "per_row_reference": {
                        k: v for k, v in join_reference.items() if k != "rows"
                    },
                    "barrier": {k: v for k, v in join_barrier.items() if k != "rows"},
                    "pipelined": {
                        k: v for k, v in join_pipelined.items() if k != "rows"
                    },
                    "speedup": join_speedup,
                    "rows_identical": join_barrier["rows"] == join_pipelined["rows"],
                },
                "topk": {
                    "barrier": {k: v for k, v in topk_barrier.items() if k != "rows"},
                    "pipelined": {
                        k: v for k, v in topk_pipelined.items() if k != "rows"
                    },
                    "hits_saved": hits_saved,
                    "rows_identical": topk_barrier["rows"] == topk_pipelined["rows"],
                },
                "replay_identical": values["join_replay"] == join_pipelined,
                "gates": {
                    f"join_speedup >= {MAKESPAN_FLOOR}": join_speedup >= MAKESPAN_FLOOR,
                    "barrier_makespan == pipelined": (
                        join_barrier["makespan"] == join_pipelined["makespan"]
                    ),
                    "reference_rows_and_cost_identical": (
                        join_reference["rows"] == join_barrier["rows"]
                        and join_reference["cost"] == join_barrier["cost"]
                    ),
                    "rows_identical": (
                        join_barrier["rows"] == join_pipelined["rows"]
                        and topk_barrier["rows"] == topk_pipelined["rows"]
                    ),
                    "topk_published <= half": (
                        topk_pipelined["published"] <= topk_barrier["published"] / 2
                    ),
                },
            },
            fh,
            indent=2,
        )

    # Result equality: pipelined output matches barrier output exactly.
    assert join_pipelined["rows"] == join_barrier["rows"]
    assert topk_pipelined["rows"] == topk_barrier["rows"]
    # The no-termination plan is bit-identical beyond rows: same votes,
    # spend, and question count (planning order == row order).
    assert join_pipelined["cost"] == join_barrier["cost"]
    assert join_pipelined["questions"] == join_barrier["questions"]
    assert join_pipelined["answers"] == join_barrier["answers"]
    # Seed replay of the pipelined path is bit-identical.
    assert values["join_replay"] == join_pipelined
    # The per-row loop buys exactly what the executors buy, one run per row.
    assert join_reference["rows"] == join_barrier["rows"]
    assert join_reference["cost"] == join_barrier["cost"]
    assert join_reference["questions"] == join_barrier["questions"]
    # The barrier executor buys the filter in one run too: same lanes, same clock.
    assert join_barrier["makespan"] == join_pipelined["makespan"]
    # Acceptance gates: >= 1.5x makespan cut; TOP-K cancels real work.
    assert join_speedup >= MAKESPAN_FLOOR, f"speedup {join_speedup:.2f}x < {MAKESPAN_FLOOR}x"
    assert topk_pipelined["published"] <= topk_barrier["published"] / 2
    assert topk_pipelined["cancelled"] > 0
    assert topk_pipelined["cost_avoided"] > 0
