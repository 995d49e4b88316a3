"""The benchmark's three workloads, each a closed loop over the public API.

Every workload builds its inputs from the seed alone, runs a fixed number
of operations of one kind, and keeps what it needs to check its outputs
and to score them against the simulation truth after the timed phase.

* ``label_batch``: one requester posts bulk-labelling jobs straight to the
  batch scheduler and aggregates each job with Dawid-Skene.
* ``sql_session``: one client runs a fixed CrowdSQL script per pass against
  a cached engine: machine reads, row-by-row writes, and crowd statements
  whose answers mostly come from the answer cache.
* ``tenant_stream``: two clients run tenant scripts through one shared
  crowd service (fair-share dispatcher, streaming executor, a bounded
  answer cache that evicts).

Module import starts nothing and imports nothing from ``repro``: the
runner times ``import repro`` as part of set-up.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

#: Seconds one run is sized for: BENCHMARK.json's ``run_seconds`` and the
#: runner's default ``--seconds``.
RUN_SECONDS = 15

#: Operations per second each workload is sized for on the reference host
#: (2 vCPU). ``--seconds`` times this rate fixes the operation count, so
#: the work is the same on every commit and never "run for N seconds".
OPS_PER_SECOND = {"label_batch": 3.3, "sql_session": 1.1, "tenant_stream": 7.0}

#: p50 needs ten samples beyond it; fewer operations make it unsteady.
MIN_OPS = 20


def op_count(workload: str, seconds: float) -> int:
    """Fixed operation count for *workload* at a nominal run length."""
    ops = max(MIN_OPS, round(seconds * OPS_PER_SECOND[workload]))
    return ops + ops % 2  # tenant_stream splits its ops over two clients


@dataclass
class OpRecord:
    """Timing of one operation; ``read_s``/``write_s`` split it by statement class."""

    kind: str
    seconds: float
    read_s: float
    write_s: float
    ok: bool = True
    started: float = 0.0  # perf_counter at the op's start, set by the runner


@dataclass
class Outcome:
    """What a workload's timed phase produced, for checks and metrics."""

    cost: float
    correct_decisions: int
    decisions: int
    sim_makespan: float
    digest: str
    failed_ops: set[int] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return self.correct_decisions / self.decisions if self.decisions else 0.0


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def _pool(n: int, low: float, high: float, seed: int):
    """One-coin workers with evenly spaced accuracies.

    A pool drawn at random per seed would move accuracy by a few points
    from seed to seed; evenly spaced accuracies keep the crowd's quality
    the same on every seed, so only the answers' randomness changes.
    """
    from repro.workers import Worker, WorkerPool
    from repro.workers.models import OneCoinModel

    accuracies = np.linspace(low, high, n).tolist()
    return WorkerPool([Worker(model=OneCoinModel(a)) for a in accuracies], seed=seed)


def _stratified(rng: np.random.Generator, low: float, high: float, n: int) -> np.ndarray:
    """*n* values, one per equal slice of [low, high), in random order.

    A threshold then selects the same number of rows on every seed, so the
    amount of work a statement does does not move with the seed.
    """
    return np.round(low + (high - low) * (rng.permutation(n) + rng.random(n)) / n, 2)


def _words(rng: np.random.Generator, vocab: tuple[str, ...], n: int) -> list[str]:
    return [vocab[i] for i in rng.integers(0, len(vocab), size=n)]


_ADJ = (
    "red", "blue", "green", "amber", "silver", "quiet", "rapid", "solid",
    "bright", "compact", "classic", "modern", "rustic", "smart", "light",
    "heavy", "mini", "grand", "urban", "arctic",
)
_NOUN = (
    "kettle", "lamp", "chair", "desk", "jacket", "bottle", "speaker", "drill",
    "blender", "backpack", "monitor", "sofa", "helmet", "tent", "router",
    "camera", "mixer", "heater", "scooter", "watch",
)
_FILM_WORDS = (
    "iron", "giant", "dawn", "night", "harvest", "paper", "planes", "sunny",
    "side", "silent", "river", "golden", "shadow", "winter", "garden", "last",
    "empire", "stone", "crimson", "echo", "harbor", "velvet", "storm", "north",
)


# ---------------------------------------------------------------------- #
# label_batch
# ---------------------------------------------------------------------- #


class LabelBatch:
    """Bulk labelling: 1000 five-label tasks x 3 votes per job, then DS."""

    name = "label_batch"
    kind = "job"
    threads = 2  # scheduler lanes
    tasks_per_job = 1000
    labels = ("a", "b", "c", "d", "e")
    prior = (0.35, 0.25, 0.2, 0.12, 0.08)

    def __init__(self, seed: int, ops: int):
        self.seed = seed
        self.ops = ops
        rng = np.random.default_rng([seed, 1])
        # Job -1 is the warm-up; jobs 0..ops-1 are timed.
        self.truths = {
            job: rng.choice(len(self.labels), size=self.tasks_per_job, p=self.prior)
            for job in range(-1, ops)
        }
        self.jobs: dict[int, tuple[list, dict, dict]] = {}

    def setup(self) -> None:
        from repro.obs.metrics import MetricsRegistry
        from repro.platform import BatchConfig, SimulatedPlatform
        from repro.platform.task import single_choice
        from repro.quality.truth import DawidSkene

        self._single_choice = single_choice
        self._ds = DawidSkene
        self.pool = _pool(50, 0.55, 0.95, self.seed)
        self.worker_index = {w.worker_id: i for i, w in enumerate(self.pool.workers)}
        self.platform = SimulatedPlatform(
            self.pool,
            seed=self.seed + 1,
            batch=BatchConfig(
                batch_size=200,
                max_parallel=self.threads,
                retry_limit=8,
                assignment_timeout=90.0,
                abandon_rate=0.05,
                seed=self.seed + 2,
            ),
            metrics=MetricsRegistry(enabled=True),
        )
        self.op(-1)

    def op(self, job: int) -> OpRecord:
        """Job *job*; job -1 is the warm-up."""
        started = time.perf_counter()
        tasks = [
            self._single_choice(
                f"job {job} item {p}: which label fits?", self.labels, truth=self.labels[t]
            )
            for p, t in enumerate(self.truths[job].tolist())
        ]
        answers = self.platform.scheduler.run(tasks, redundancy=3).answers
        collected = time.perf_counter()
        labels = self._ds().infer(answers).truths
        done = time.perf_counter()
        self.jobs[job] = (tasks, answers, labels)
        return OpRecord(self.kind, done - started, done - collected, collected - started)

    def begin(self) -> None:
        self.errors: list[str] = []
        self.cost0 = self.platform.stats.cost_spent
        self.answers0 = self.platform.stats.answers_collected
        self.clock0 = self.platform.scheduler.simulated_clock

    def outcome(self) -> Outcome:
        stats = self.platform.stats
        cost = stats.cost_spent - self.cost0
        out = Outcome(cost, 0, 0, self.platform.scheduler.simulated_clock - self.clock0, "")
        out.errors.extend(self.errors)
        parts = []
        answer_count = 0
        for job in range(self.ops):
            if job not in self.jobs:
                out.failed_ops.add(job)
                continue
            tasks, answers, labels = self.jobs[job]
            for p, task in enumerate(tasks):
                got = answers.get(task.task_id, [])
                answer_count += len(got)
                if len(got) != 3 or task.task_id not in labels:
                    out.failed_ops.add(job)
                    out.errors.append(f"job {job} task {p}: {len(got)} answers, labelled="
                                      f"{task.task_id in labels}")
                    continue
                out.decisions += 1
                out.correct_decisions += labels[task.task_id] == task.truth
                votes = sorted((self.worker_index[a.worker_id], a.value) for a in got)
                parts.append((job, p, votes, labels[task.task_id]))
        reward = self.platform.pricing.default
        if answer_count != stats.answers_collected - self.answers0:
            out.errors.append("answers returned differ from answers the platform collected")
            out.failed_ops.add(-1)  # a run-level check: no single job to blame
        if not math.isclose(cost, answer_count * reward, rel_tol=1e-9):
            out.errors.append(f"spend {cost!r} != {answer_count} answers x {reward}")
            out.failed_ops.add(-1)
        out.digest = _digest(parts)
        return out


# ---------------------------------------------------------------------- #
# sql_session
# ---------------------------------------------------------------------- #


class SqlSession:
    """A fixed CrowdSQL pass over a 20k-row table with a warm answer cache."""

    name = "sql_session"
    kind = "pass"
    threads = 1
    n_products = 20_000
    n_categories = 200
    n_films = 40
    per_pass = 50          # rows inserted and deleted per pass
    imports_per_pass = 10
    candidate_price = 11.0  # machine prefix of the crowd filter (~5% of rows)
    join_stock = 25         # machine filter under the hash join (~5% of rows)
    filter_question = "Is this product eco-friendly?"

    def __init__(self, seed: int, ops: int):
        self.seed = seed
        self.ops = ops
        rng = np.random.default_rng([seed, 2])
        self.categories = [f"cat{i:03d}" for i in range(self.n_categories)]
        self.catalog = {
            c: (f"dept{i % 12:02d}", round(float(m), 3))
            for i, (c, m) in enumerate(
                zip(self.categories, rng.uniform(0.05, 0.6, self.n_categories), strict=True)
            )
        }
        total = self.n_products + self.per_pass * (ops + 1)
        adj = _words(rng, _ADJ, total)
        noun = _words(rng, _NOUN, total)
        cat = rng.integers(0, self.n_categories, size=total)
        extra = total - self.n_products
        price = np.concatenate([_stratified(rng, 1.0, 200.0, self.n_products),
                                _stratified(rng, 1.0, 200.0, extra)])
        stock = np.floor(np.concatenate([_stratified(rng, 0.0, 500.0, self.n_products),
                                         _stratified(rng, 0.0, 500.0, extra)])).astype(int)
        eco = rng.random(total) < 0.4
        #: Every product row ever inserted, by id (== insertion sequence).
        self.products = [
            {
                "id": i,
                "name": f"{adj[i]} {noun[i]} {i:06d}",
                "category": self.categories[int(cat[i])],
                "price": float(price[i]),
                "stock": int(stock[i]),
                "added": i,
            }
            for i in range(total)
        ]
        self.eco = {row["name"]: bool(e) for row, e in zip(self.products, eco.tolist(), strict=True)}
        titles: set[str] = set()
        while len(titles) < self.n_films:
            a, b, c = _words(rng, _FILM_WORDS, 3)
            if len({a, b, c}) == 3:
                titles.add(f"{a} {b} {c}")
        self.films = {t: round(float(r), 3) for t, r in zip(
            sorted(titles), rng.permutation(np.linspace(1.0, 9.9, self.n_films)), strict=True
        )}
        film_list = sorted(self.films)
        # Per pass: fresh import listings, 4 of them re-spellings of a film.
        self.imports: dict[int, dict[str, str | None]] = {}
        for p in range(ops + 1):
            listings: dict[str, str | None] = {}
            matches = set(rng.choice(self.imports_per_pass, size=4, replace=False).tolist())
            for k in range(self.imports_per_pass):
                if k in matches:
                    title = film_list[int(rng.integers(0, self.n_films))]
                    words = title.split()
                    listing = " ".join(words[i] for i in rng.permutation(len(words)))
                    listings[f"{listing} lot{p}x{k}"] = title
                else:
                    a, b = _words(rng, _FILM_WORDS, 2)
                    listings[f"{a} {b} reel lot{p}x{k}"] = None
            self.imports[p] = listings
        self.updates = {
            p: (int(rng.integers(self.per_pass * (p + 1), self.n_products)), int(rng.integers(0, 500)))
            for p in range(ops + 1)
        }
        self.results: dict[int, dict[str, list]] = {}

    # -- the script ------------------------------------------------------ #

    def writes(self, p: int) -> list[str]:
        new = self.products[self.n_products + self.per_pass * p:
                            self.n_products + self.per_pass * (p + 1)]
        values = ", ".join(
            f"({r['id']}, '{r['name']}', '{r['category']}', {r['price']!r}, {r['stock']}, "
            f"{r['added']})"
            for r in new
        )
        uid, stock = self.updates[p]
        listings = ", ".join(f"('{x}')" for x in self.imports[p])
        return [
            f"INSERT INTO products (id, name, category, price, stock, added) VALUES {values}",
            f"DELETE FROM products WHERE added < {self.per_pass * (p + 1)}",
            f"UPDATE products SET stock = {stock} WHERE id = {uid}",
            "DELETE FROM imports",
            f"INSERT INTO imports (listing) VALUES {listings}",
        ]

    reads = {
        "groupby": "SELECT category, COUNT(*), AVG(price) FROM products GROUP BY category",
        "join": (
            "SELECT name, dept FROM products JOIN catalog ON category = cat "
            f"WHERE stock < {join_stock}"
        ),
    }
    crowd = {
        "filter": (
            f"SELECT id, name FROM products WHERE price < {candidate_price} "
            f"AND CROWDFILTER(name, '{filter_question}')"
        ),
        "crowdjoin": (
            "SELECT listing, title FROM imports CROWDJOIN films ON CROWDEQUAL(listing, title)"
        ),
        "crowdorder": "SELECT title, rating FROM films CROWDORDER BY rating LIMIT 5",
    }

    def setup(self) -> None:
        from repro import CrowdEngine, EngineConfig
        from repro.lang import CrowdOracle

        equal_truth: dict[tuple[str, str], bool] = {}
        for listings in self.imports.values():
            for listing, title in listings.items():
                for film in self.films:
                    equal_truth[(listing, film)] = film == title
        oracle = CrowdOracle(
            filter_fn=lambda value, question: self.eco[value],
            equal_fn=lambda a, b: equal_truth[(a, b)],
        )
        # The engine's default pool size and accuracy range, evenly spaced.
        config = EngineConfig(seed=self.seed, cache_enabled=True)
        pool = _pool(config.pool_size, *config.pool_accuracy_range, self.seed)
        self.engine = CrowdEngine(config, pool=pool, oracle=oracle)
        self.engine.sql(
            "CREATE TABLE products (id INTEGER NOT NULL, name STRING NOT NULL, "
            "category STRING, price FLOAT, stock INTEGER, added INTEGER, PRIMARY KEY (id));"
            "CREATE TABLE catalog (cat STRING NOT NULL, dept STRING, margin FLOAT, "
            "PRIMARY KEY (cat));"
            "CREATE TABLE films (title STRING NOT NULL, rating FLOAT, PRIMARY KEY (title));"
            "CREATE TABLE imports (listing STRING NOT NULL, PRIMARY KEY (listing));"
        )
        db = self.engine.database
        first = self.products[: self.n_products]
        db.table("products").insert_columns(
            {k: [r[k] for r in first] for k in ("id", "name", "category", "price", "stock", "added")}
        )
        db.table("catalog").insert_columns({
            "cat": list(self.catalog),
            "dept": [d for d, _ in self.catalog.values()],
            "margin": [m for _, m in self.catalog.values()],
        })
        db.table("films").insert_columns(
            {"title": list(self.films), "rating": list(self.films.values())}
        )
        self._pass(0)

    @property
    def platform(self):
        return self.engine.platform

    def _run(self, sql: str):
        return self.engine.sql(sql)[-1]

    def op(self, i: int) -> OpRecord:
        """Timed op *i* is pass i+1; pass 0 is the warm-up."""
        return self._pass(i + 1)

    def _pass(self, p: int) -> OpRecord:
        started = time.perf_counter()
        for sql in self.writes(p):
            self._run(sql)
        written = time.perf_counter()
        out = {name: self._run(sql).rows for name, sql in self.reads.items()}
        read = time.perf_counter()
        for name, sql in self.crowd.items():
            out[name] = self._run(sql).rows
        done = time.perf_counter()
        self.results[p] = out
        return OpRecord(self.kind, done - started, read - written, written - started)

    def begin(self) -> None:
        self.errors: list[str] = []
        stats = self.engine.stats
        self.cost0 = stats.cost_spent
        self.clock0 = self.engine.scheduler.simulated_clock

    def outcome(self) -> Outcome:
        stats = self.engine.stats
        out = Outcome(
            stats.cost_spent - self.cost0, 0, 0,
            self.engine.scheduler.simulated_clock - self.clock0, "",
        )
        out.errors.extend(self.errors)
        # Replay the script's writes on a pure-Python mirror of products.
        live = {r["id"]: dict(r) for r in self.products[: self.n_products]}
        parts = []
        for p in range(self.ops + 1):
            for r in self.products[self.n_products + self.per_pass * p:
                                   self.n_products + self.per_pass * (p + 1)]:
                live[r["id"]] = dict(r)
            for rid in [k for k, r in live.items() if r["added"] < self.per_pass * (p + 1)]:
                del live[rid]
            uid, stock = self.updates[p]
            live[uid]["stock"] = stock
            if p == 0:
                continue
            op = p - 1
            got = self.results.get(p)
            if got is None:
                out.failed_ops.add(op)
                continue
            problems = self._check_pass(p, live, got)
            if problems:
                out.failed_ops.add(op)
                out.errors.extend(f"pass {p}: {msg}" for msg in problems)
            candidates = {r["name"] for r in live.values() if r["price"] < self.candidate_price}
            kept = {r["name"] for r in got["filter"]}
            for name in candidates:
                out.decisions += 1
                out.correct_decisions += (name in kept) == self.eco[name]
            matched = {(r["listing"], r["title"]) for r in got["crowdjoin"]}
            for listing, title in self.imports[p].items():
                for film in self.films:
                    out.decisions += 1
                    out.correct_decisions += ((listing, film) in matched) == (film == title)
            parts.append((p, sorted(kept), sorted(matched),
                          [r["title"] for r in got["crowdorder"]]))
        out.digest = _digest(parts)
        return out

    def _check_pass(self, p: int, live: dict, got: dict) -> list[str]:
        problems = []
        groups: dict[str, list[float]] = {}
        for r in live.values():
            groups.setdefault(r["category"], []).append(r["price"])
        got_groups = {r["category"]: r for r in got["groupby"]}
        if set(got_groups) != set(groups):
            problems.append("GROUP BY categories differ from the reference")
        else:
            for c, prices in groups.items():
                row = got_groups[c]
                count = next(v for k, v in row.items() if k.upper().startswith("COUNT"))
                avg = next(v for k, v in row.items() if k.upper().startswith("AVG"))
                if count != len(prices) or not math.isclose(avg, math.fsum(prices) / len(prices),
                                                           rel_tol=1e-9):
                    problems.append(f"GROUP BY row for {c} differs from the reference")
                    break
        if sum(len(v) for v in groups.values()) != self.n_products:
            problems.append("live row count changed")
        want_join = sorted(
            (r["name"], self.catalog[r["category"]][0])
            for r in live.values() if r["stock"] < self.join_stock
        )
        if sorted((r["name"], r["dept"]) for r in got["join"]) != want_join:
            problems.append("hash join rows differ from the reference")
        candidates = {r["name"] for r in live.values() if r["price"] < self.candidate_price}
        if not {r["name"] for r in got["filter"]} <= candidates:
            problems.append("CROWDFILTER returned a row that fails its machine prefix")
        if len(got["crowdorder"]) != 5:
            problems.append("CROWDORDER ... LIMIT 5 returned a short result")
        return problems


# ---------------------------------------------------------------------- #
# tenant_stream
# ---------------------------------------------------------------------- #


class TenantStream:
    """Two clients, four weighted tenants, one service, pipelined scripts."""

    name = "tenant_stream"
    kind = "script"
    threads = 2  # service session threads (max_sessions)
    weights = {"t0": 4.0, "t1": 2.0, "t2": 1.0, "t3": 1.0}
    #: Client 0 always serves t0 (half the ops); client 1 cycles the rest,
    #: so a tenant never runs two scripts at once and shares stay 4:2:1:1.
    cycles = (("t0",), ("t1", "t2", "t1", "t3"))
    n_listings = 3000
    n_shared = 1500     # items every tenant's table holds
    n_sellers = 40
    per_op = 5          # listings inserted and deleted per script
    #: Holds the filter->join questions of all tenants (~270) but not the
    #: stream of top-k questions, so the cache both reuses and evicts.
    cache_entries = 400
    filter_price = 8.0  # ~4% of listings are filter->join candidates
    topk_price = 40.0   # ~20% are top-k candidates
    filter_question = "Is this listing genuine?"
    #: The top-k asks about this week's prices, so its questions are new in
    #: every script: the cheapest candidates always miss the cache and the
    #: LIMIT cancels the rest. (Cached answers only reach the streaming
    #: executor when its run ends, so cached candidates would hold back
    #: early termination.)
    topk_question = "Is this listing a bargain in week {week}?"

    def __init__(self, seed: int, ops: int):
        self.seed = seed
        self.ops = ops
        rng = np.random.default_rng([seed, 3])
        shared_names = [f"{a} {n} s{i:05d}" for i, (a, n) in enumerate(zip(
            _words(rng, _ADJ, self.n_shared), _words(rng, _NOUN, self.n_shared), strict=True))]
        shared_price = _stratified(rng, 1.0, 200.0, self.n_shared).tolist()
        per_tenant_ops = {t: 0 for t in self.weights}
        for cycle in self.cycles:
            for k in range(ops // 2):
                per_tenant_ops[cycle[k % len(cycle)]] += 1
        self.tables: dict[str, list[dict]] = {}
        for tenant in self.weights:
            # The initial table holds every shared item once plus as many
            # tenant-only items; ingested listings alternate the two kinds.
            extra = self.per_op * (per_tenant_ops[tenant] + 1)
            n_own = self.n_listings - self.n_shared + (extra + 1) // 2
            own_price = _stratified(rng, 1.0, 200.0, n_own).tolist()
            items = [(shared_names[i], shared_price[i]) for i in range(self.n_shared)]
            items += [(f"{a} {n} {tenant}u{i:05d}", own_price[i]) for i, (a, n) in enumerate(
                zip(_words(rng, _ADJ, n_own), _words(rng, _NOUN, n_own), strict=True))]
            first = self.n_listings
            order = rng.permutation(first).tolist()
            shared_extra = rng.integers(0, self.n_shared, size=extra).tolist()
            rows = []
            for i in range(first + extra):
                if i < first:
                    name, price = items[order[i]]
                elif i % 2:
                    name, price = items[shared_extra[i - first]]
                else:
                    name, price = items[first + (i - first) // 2]
                rows.append({"lid": i, "name": name, "seller": int(rng.integers(0, self.n_sellers)),
                             "price": price, "added": i})
            self.tables[tenant] = rows
        self.regions = [f"region{i % 7}" for i in range(self.n_sellers)]
        self.done_ops: dict[str, int] = {t: 0 for t in self.weights}
        self.results: dict[tuple[int, int], tuple[str, int, dict]] = {}

    def writes(self, tenant: str, k: int) -> list[str]:
        """Script *k* of *tenant* (0 is the warm-up) ingests and retires listings."""
        rows = self.tables[tenant][self.n_listings + self.per_op * k:
                                   self.n_listings + self.per_op * (k + 1)]
        values = ", ".join(
            f"({r['lid']}, '{r['name']}', {r['seller']}, {r['price']!r}, {r['added']})"
            for r in rows
        )
        return [
            f"INSERT INTO listings (lid, name, seller, price, added) VALUES {values}",
            f"DELETE FROM listings WHERE added < {self.per_op * (k + 1)}",
        ]

    reads = {"summary": "SELECT seller, COUNT(*) FROM listings GROUP BY seller"}

    def crowd(self, k: int) -> dict[str, str]:
        return {
            "filterjoin": (
                "SELECT name, region FROM listings JOIN sellers ON seller = sid "
                f"WHERE price < {self.filter_price} "
                f"AND CROWDFILTER(name, '{self.filter_question}')"
            ),
            "topk": (
                f"SELECT name, price FROM listings WHERE price < {self.topk_price} "
                f"AND CROWDFILTER(name, '{self.topk_question.format(week=k)}') "
                "ORDER BY price LIMIT 10"
            ),
        }

    def truth(self, name: str, question: str) -> bool:
        """The simulated truth: a fair coin per (seed, item, question).

        Shared items get the same answer in every tenant, so their cached
        answers are right for all of them.
        """
        digest = hashlib.blake2b(f"{self.seed}|{name}|{question}".encode(), digest_size=1)
        return digest.digest()[0] < 128

    def setup(self) -> None:
        from repro.lang import CrowdOracle
        from repro.obs.metrics import MetricsRegistry
        from repro.data import Database
        from repro.platform import AnswerCache, BatchConfig, SimulatedPlatform
        from repro.service import CrowdService, TenantSpec

        self.platform = SimulatedPlatform(
            _pool(30, 0.6, 0.95, self.seed),
            seed=self.seed + 1,
            batch=BatchConfig(max_parallel=1, seed=self.seed + 2),
            metrics=MetricsRegistry(enabled=True),
        )
        self.platform.attach_cache(AnswerCache(max_entries=self.cache_entries))
        self.service = CrowdService(self.platform, max_sessions=self.threads)
        oracle = CrowdOracle(filter_fn=self.truth)
        self.sessions = {}
        for tenant, weight in self.weights.items():
            self.service.register(TenantSpec(tenant, weight=weight))
            db = Database(tenant)
            session = self.service.session(tenant, database=db, redundancy=3, oracle=oracle,
                                           pipeline=True)
            session.execute(
                "CREATE TABLE listings (lid INTEGER NOT NULL, name STRING NOT NULL, "
                "seller INTEGER, price FLOAT, added INTEGER, PRIMARY KEY (lid));"
                "CREATE TABLE sellers (sid INTEGER NOT NULL, region STRING, PRIMARY KEY (sid));"
            )
            first = self.tables[tenant][: self.n_listings]
            db.table("listings").insert_columns(
                {k: [r[k] for r in first] for k in ("lid", "name", "seller", "price", "added")}
            )
            db.table("sellers").insert_columns(
                {"sid": list(range(self.n_sellers)), "region": self.regions}
            )
            self.sessions[tenant] = session
        self.service.start()
        # Warm-up: every tenant's script 0, one at a time.
        for tenant in self.weights:
            asyncio.run(self._script(tenant, 0))

    def close(self) -> None:
        self.service.stop()

    async def _script(self, tenant: str, k: int) -> tuple[float, float, dict]:
        session = self.sessions[tenant]
        started = time.perf_counter()
        for sql in self.writes(tenant, k):
            await self.service.aexecute(session, sql)
        written = time.perf_counter()
        out = {}
        for name, sql in self.reads.items():
            out[name] = (await self.service.aexecute(session, sql))[-1].rows
        read = time.perf_counter()
        for name, sql in self.crowd(k).items():
            out[name] = (await self.service.aexecute(session, sql))[-1]
        return read - written, written - started, out

    def run(self, records: list, lo: int, hi: int, on_op, calibrate) -> None:
        """Both clients over ops [lo, hi) in rounds; op 2j+c is client c's j-th.

        Round j starts both clients' j-th scripts together and ends when both
        have returned. The host-speed sample is taken between rounds, while
        neither client has work in flight, so it never stalls a client.
        """

        async def client(c: int, j: int) -> None:
            index = 2 * j + c
            cycle = self.cycles[c]
            tenant = cycle[j % len(cycle)]
            self.done_ops[tenant] += 1
            k = self.done_ops[tenant]
            on_op(index)
            started = time.perf_counter()
            try:
                read_s, write_s, out = await self._script(tenant, k)
            except Exception as exc:  # counted as a failed op
                records[index] = OpRecord(self.kind, time.perf_counter() - started, 0.0, 0.0,
                                          ok=False, started=started)
                self.errors.append(f"op {index} ({tenant}): {exc!r}")
                return
            records[index] = OpRecord(self.kind, time.perf_counter() - started, read_s,
                                      write_s, started=started)
            self.results[(c, j)] = (tenant, k, out)

        async def main() -> None:
            for j in range(lo // 2, hi // 2):
                calibrate()
                await asyncio.gather(client(0, j), client(1, j))

        asyncio.run(main())

    def begin(self) -> None:
        self.errors: list[str] = []
        self.cost0 = self.platform.stats.cost_spent
        self.clock0 = self.platform.scheduler.simulated_clock

    def outcome(self) -> Outcome:
        stats = self.platform.stats
        out = Outcome(stats.cost_spent - self.cost0, 0, 0,
                      self.platform.scheduler.simulated_clock - self.clock0, "")
        out.errors.extend(self.errors)
        ledgers = math.fsum(t.account.spent for t in self.service.tenants)
        if not math.isclose(ledgers, stats.cost_spent, rel_tol=1e-9, abs_tol=1e-9):
            out.errors.append(f"tenant ledgers sum to {ledgers!r}, platform spent "
                              f"{stats.cost_spent!r}")
            out.failed_ops.add(-1)
        parts = []
        for c in (0, 1):
            for j in range(self.ops // 2):
                index = 2 * j + c
                if (c, j) not in self.results:
                    out.failed_ops.add(index)
                    continue
                tenant, k, got = self.results[(c, j)]
                live = self.tables[tenant][self.per_op * (k + 1):
                                           self.n_listings + self.per_op * (k + 1)]
                problems = []
                candidates = {r["name"] for r in live if r["price"] < self.filter_price}
                kept = {r["name"] for r in got["filterjoin"].rows}
                if not kept <= candidates:
                    problems.append("filter->join returned a row that fails its prefix")
                for name in candidates:
                    out.decisions += 1
                    out.correct_decisions += (name in kept) == self.truth(name, self.filter_question)
                top = got["topk"].rows
                if len(top) != 10:
                    problems.append(f"top-k returned {len(top)} rows, not its LIMIT 10")
                week = self.topk_question.format(week=k)
                for r in top:
                    out.decisions += 1
                    out.correct_decisions += self.truth(r["name"], week)
                want_summary: dict[int, int] = {}
                for r in live:
                    want_summary[r["seller"]] = want_summary.get(r["seller"], 0) + 1
                got_summary = {r["seller"]: next(v for key, v in r.items() if key != "seller")
                               for r in got["summary"]}
                if got_summary != want_summary:
                    problems.append("GROUP BY summary differs from the reference")
                if problems:
                    out.failed_ops.add(index)
                    out.errors.extend(f"op {index} ({tenant}): {m}" for m in problems)
                parts.append((tenant, k, sorted(kept), [r["name"] for r in top]))
        out.digest = _digest(sorted(parts))
        return out


WORKLOADS = {w.name: w for w in (LabelBatch, SqlSession, TenantStream)}


def run_single_client(workload, records: list, lo: int, hi: int, on_op, calibrate) -> None:
    """Closed loop with one client: ops lo..hi-1 back to back."""
    for i in range(lo, hi):
        calibrate()
        on_op(i)
        started = time.perf_counter()
        try:
            records[i] = workload.op(i)
        except Exception as exc:  # counted as a failed op
            records[i] = OpRecord(workload.kind, time.perf_counter() - started, 0.0, 0.0, ok=False)
            workload.errors.append(f"op {i}: {exc!r}")
        records[i].started = started
