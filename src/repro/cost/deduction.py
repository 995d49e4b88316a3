"""Answer deduction: infer answers from transitivity instead of buying them.

The tutorial's cost-control section highlights two deduction opportunities:

* **Entity resolution** (:class:`TransitiveResolver`): match is an
  equivalence relation — ``a=b and b=c implies a=c`` and ``a=b and b!=c
  implies a!=c``. Asking pairs in descending machine-similarity order and
  deducing whatever transitivity already settles is the classic
  Wang et al. strategy; the benchmarks measure how many crowd questions it
  saves.

* **Comparisons** (:class:`ComparisonDeducer`): "ranks higher" is a strict
  order — ``a>b and b>c implies a>c``. Maintaining the transitive closure
  of asked comparisons lets sort/top-k operators skip implied questions.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Hashable, Iterable, Sequence

from repro.errors import DeductionError


class _UnionFind:
    """Union-find with path compression and union by size."""

    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}

    def find(self, item: Hashable) -> Hashable:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1
            return item
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra

    def same(self, a: Hashable, b: Hashable) -> bool:
        return self.find(a) == self.find(b)


class TransitiveResolver:
    """Incremental equivalence reasoning over match/non-match evidence.

    ``record_match`` / ``record_nonmatch`` add crowd-confirmed evidence;
    :meth:`infer` answers "same entity?" from the closure — True, False, or
    None (must ask). Adding evidence that contradicts the closure raises
    :class:`~repro.errors.DeductionError` in strict mode (default) or is
    ignored with a recorded conflict otherwise (real crowds are noisy).
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self._clusters = _UnionFind()
        # Non-match edges between cluster roots; kept root-normalized lazily.
        self._nonmatch: dict[Hashable, set[Hashable]] = defaultdict(set)
        self.conflicts: list[tuple[Hashable, Hashable, str]] = []

    # ------------------------------------------------------------------ #
    # Evidence
    # ------------------------------------------------------------------ #

    def _roots_nonmatch(self, ra: Hashable, rb: Hashable) -> bool:
        return rb in self._nonmatch.get(ra, ()) or ra in self._nonmatch.get(rb, ())

    def record_match(self, a: Hashable, b: Hashable) -> None:
        """Record crowd-confirmed 'same entity' evidence for (a, b)."""
        ra, rb = self._clusters.find(a), self._clusters.find(b)
        if ra == rb:
            return
        if self._roots_nonmatch(ra, rb):
            if self.strict:
                raise DeductionError(
                    f"match({a!r}, {b!r}) contradicts a recorded non-match"
                )
            self.conflicts.append((a, b, "match_vs_nonmatch"))
            return
        new_root = self._clusters.union(ra, rb)
        old_root = rb if new_root == ra else ra
        # Migrate non-match edges from the absorbed root.
        for other in self._nonmatch.pop(old_root, set()):
            self._nonmatch[new_root].add(other)
            self._nonmatch[other].discard(old_root)
            self._nonmatch[other].add(new_root)

    def record_nonmatch(self, a: Hashable, b: Hashable) -> None:
        """Record crowd-confirmed 'different entities' evidence for (a, b)."""
        ra, rb = self._clusters.find(a), self._clusters.find(b)
        if ra == rb:
            if self.strict:
                raise DeductionError(
                    f"nonmatch({a!r}, {b!r}) contradicts the match closure"
                )
            self.conflicts.append((a, b, "nonmatch_vs_match"))
            return
        self._nonmatch[ra].add(rb)
        self._nonmatch[rb].add(ra)

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #

    def infer(self, a: Hashable, b: Hashable) -> bool | None:
        """True/False if deducible from the closure, else None."""
        ra, rb = self._clusters.find(a), self._clusters.find(b)
        if ra == rb:
            return True
        if self._roots_nonmatch(ra, rb):
            return False
        return None

    def clusters(self, items: Iterable[Hashable]) -> list[set[Hashable]]:
        """Partition *items* into current equivalence classes."""
        groups: dict[Hashable, set[Hashable]] = defaultdict(set)
        for item in items:
            groups[self._clusters.find(item)].add(item)
        return list(groups.values())


def resolve_pairs(
    pairs: Sequence[tuple[Hashable, Hashable]],
    oracle: Callable[[Hashable, Hashable], bool],
    resolver: TransitiveResolver | None = None,
) -> tuple[dict[tuple[Hashable, Hashable], bool], int]:
    """Label every pair, asking *oracle* only when deduction cannot answer.

    *pairs* should be pre-sorted (descending machine similarity maximizes
    deduction in practice: likely-matches asked first seed large clusters).
    Returns (labels, questions_asked). The oracle stands in for a
    crowd-with-aggregation pipeline; see
    :class:`repro.operators.join.CrowdJoin` for the full stack.
    """
    resolver = resolver or TransitiveResolver(strict=False)
    labels: dict[tuple[Hashable, Hashable], bool] = {}
    asked = 0
    for a, b in pairs:
        deduced = resolver.infer(a, b)
        if deduced is None:
            verdict = bool(oracle(a, b))
            asked += 1
            if verdict:
                resolver.record_match(a, b)
            else:
                resolver.record_nonmatch(a, b)
            labels[(a, b)] = verdict
        else:
            labels[(a, b)] = deduced
    return labels, asked


class ComparisonDeducer:
    """Transitive closure over strict-order evidence (a ranks above b).

    ``record(a, b)`` asserts a > b. :meth:`infer` answers "a > b?" with
    True/False/None by reachability. Cycles (contradictions) raise in
    strict mode. Reachability is computed by incremental closure: small
    (hundreds of items) sort frontiers are the intended scale.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self._above: dict[Hashable, set[Hashable]] = defaultdict(set)  # a -> {all below a}
        self._below: dict[Hashable, set[Hashable]] = defaultdict(set)
        self.conflicts: list[tuple[Hashable, Hashable]] = []
        self.recorded = 0

    def record(self, winner: Hashable, loser: Hashable) -> None:
        """Record crowd-confirmed evidence that *winner* ranks above *loser*."""
        if winner == loser:
            raise DeductionError("an item cannot outrank itself")
        if winner in self._above.get(loser, ()):  # loser > winner already known
            if self.strict:
                raise DeductionError(
                    f"{winner!r} > {loser!r} contradicts the recorded order"
                )
            self.conflicts.append((winner, loser))
            return
        if loser in self._above.get(winner, ()):
            return  # already known
        # New edge: everything >= winner is above everything <= loser.
        uppers = {winner} | self._below.get(winner, set())
        lowers = {loser} | self._above.get(loser, set())
        for up in uppers:
            self._above[up] |= lowers
        for low in lowers:
            self._below[low] |= uppers
        self.recorded += 1

    def infer(self, a: Hashable, b: Hashable) -> bool | None:
        """True/False if 'a above b' follows from the closure, else None."""
        if b in self._above.get(a, ()):
            return True
        if a in self._above.get(b, ()):
            return False
        return None

    def known_below(self, item: Hashable) -> set[Hashable]:
        """Items the closure places strictly below *item*."""
        return set(self._above.get(item, ()))

    def known_above(self, item: Hashable) -> set[Hashable]:
        """Items the closure places strictly above *item*."""
        return set(self._below.get(item, ()))
