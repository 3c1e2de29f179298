"""Oracle-parity observer: the production search path against its references.

The runner has one search path -- the rule trie with delta seeding, the hash
multi-pattern join, and compiled condition programs over the interned shape
facts.  Each of those has a slower reference implementation kept as a plain
function:

* :func:`~repro.egraph.ematch.naive_search_pattern` for the trie,
* :meth:`~repro.egraph.multipattern.MultiPatternRewrite._combine_product`
  for the hash join,
* the ``_check_spec`` / ``_infer_term`` inference path of
  :mod:`repro.rules.conditions` for the compiled conditions.

:class:`OracleParityObserver` recomputes, at every ``on_iteration_start``,
each rule's condition-filtered match count on the frozen e-graph with the
references only, and asserts at ``on_iteration_end`` that the runner's
``on_match_batch`` counts are identical, rule for rule and in order.

The cycle filter's bitset descendants map
(:func:`~repro.egraph.cycles.descendants_map`) has the set-per-class map it
replaced as its reference: :func:`descendants_sets` builds it, and
:class:`CycleFilterParity` asks both on every ``allows`` call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.egraph.cycles import (
    Descendants,
    EfficientCycleFilter,
    FilterList,
    _children_of_class,
)
from repro.egraph.ematch import naive_search_pattern


class SpecView:
    """The e-graph as rule conditions see it, without its analysis object.

    ``TargetsShapeValid`` runs its compiled programs only when the e-graph's
    analysis interns its facts; this view exposes just ``analysis_data`` and
    ``find``, so every condition evaluated through it takes the spec path.
    """

    __slots__ = ("_egraph",)

    def __init__(self, egraph) -> None:
        self._egraph = egraph

    def analysis_data(self, eclass_id: int):
        return self._egraph.analysis_data(eclass_id)

    def find(self, eclass_id: int) -> int:
        return self._egraph.find(eclass_id)


class OracleParityObserver:
    """Asserts the runner's per-rule match counts equal the references' counts.

    Assumes no ``max_multi_combinations`` cap, so counts do not depend on
    match order.  Scheduler-banned rules are not searched and emit no
    ``on_match_batch``, so in an iteration with bans the runner's counts
    need only be an in-order subsequence of the reference counts.
    """

    def __init__(self, rewrites: Sequence, multi_rewrites: Sequence = (), k_multi: int = 1) -> None:
        self.rewrites = list(rewrites)
        self.multi_rewrites = list(multi_rewrites)
        self.k_multi = k_multi
        self._expected: Optional[List[Tuple[str, int]]] = None
        self._observed: List[Tuple[str, int]] = []
        #: Iterations whose counts were checked.
        self.iterations_checked = 0
        #: Total matches the references found over all checked iterations.
        self.total_matches = 0

    def on_iteration_start(self, iteration: int, egraph) -> None:
        view = SpecView(egraph)
        expected: List[Tuple[str, int]] = []
        if iteration < self.k_multi:
            for rule in self.multi_rewrites:
                per_source = [naive_search_pattern(egraph, p) for p in rule.sources]
                expected.append((rule.name, len(rule._combine_product(view, per_source))))
        for rewrite in self.rewrites:
            matches = naive_search_pattern(egraph, rewrite.lhs)
            if rewrite.condition is not None:
                matches = [m for m in matches if rewrite.condition(view, m)]
            expected.append((rewrite.name, len(matches)))
        self._expected = expected
        self._observed = []

    def on_match_batch(self, iteration: int, rule: str, n_matches: int, admitted: bool) -> None:
        self._observed.append((rule, n_matches))

    def on_iteration_end(self, iteration: int, report) -> None:
        if report.n_rules_banned == 0:
            assert len(self._observed) == len(self._expected), f"iteration {iteration}"
        remaining = iter(self._expected)
        diverged = []
        for rule, n_matches in self._observed:
            reference = next((n for name, n in remaining if name == rule), None)
            if reference != n_matches:
                diverged.append((rule, reference, n_matches))
        assert not diverged, (
            f"iteration {iteration}: (rule, reference, runner) counts diverge: {diverged[:5]}"
        )
        self.iterations_checked += 1
        self.total_matches += sum(n for _, n in self._expected)


def descendants_sets(egraph, filter_list: Optional[FilterList] = None) -> Dict[int, Set[int]]:
    """The set-per-class descendants map: the reference for the bitset one.

    Same iterative DFS with memoisation, and the same mid-cycle semantics: a
    child still on the stack contributes itself but not its descendants.
    Memory grows as O(classes**2) Python set entries.
    """
    filtered = filter_list.as_set(egraph) if filter_list is not None else frozenset()
    desc: Dict[int, Set[int]] = {}
    state: Dict[int, int] = {}  # 0 = unvisited, 1 = on stack, 2 = done

    for start in egraph.eclass_ids():
        start = egraph.find(start)
        if state.get(start, 0) == 2:
            continue
        stack: List[Tuple[int, Iterable[int]]] = [(start, iter(_children_of_class(egraph, start, filtered)))]
        state[start] = 1
        desc.setdefault(start, set())
        while stack:
            cls, it = stack[-1]
            advanced = False
            for child in it:
                desc[cls].add(child)
                child_state = state.get(child, 0)
                if child_state == 0:
                    state[child] = 1
                    desc.setdefault(child, set())
                    stack.append((child, iter(_children_of_class(egraph, child, filtered))))
                    advanced = True
                    break
                if child_state == 2:
                    desc[cls] |= desc[child]
            if not advanced:
                state[cls] = 2
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    desc[parent].add(cls)
                    desc[parent] |= desc[cls]
    return desc


def would_create_cycle_sets(egraph, matched_eclasses, leaf_eclasses, desc: Dict[int, Set[int]]) -> bool:
    """``would_create_cycle`` over the set-per-class map."""
    for m in matched_eclasses:
        m = egraph.find(m)
        for leaf in leaf_eclasses:
            leaf = egraph.find(leaf)
            if leaf == m or m in desc.get(leaf, ()):
                return True
    return False


def decode(desc: Descendants) -> Dict[int, Set[int]]:
    """The bitset map as one set of reachable class ids per indexed class.

    ``index`` hands out dense indices in insertion order, so its key list,
    read by position, maps a column back to its class id.
    """
    ids = list(desc.index)
    return {
        cls: {ids[column] for column in range(len(ids)) if desc.bits[row] >> column & 1}
        for cls, row in desc.index.items()
    }


class CycleFilterParity(EfficientCycleFilter):
    """The efficient filter, asserting the set map gives every verdict it gives."""

    def __init__(self) -> None:
        super().__init__()
        self._sets: Dict[int, Set[int]] = {}
        #: ``allows`` calls checked, and how many of them refused.
        self.calls = 0
        self.refused = 0

    def begin_iteration(self, egraph) -> None:
        super().begin_iteration(egraph)
        self._sets = descendants_sets(egraph, self.filter_list)

    def allows(self, egraph, matched_eclasses, leaf_eclasses) -> bool:
        verdict = super().allows(egraph, matched_eclasses, leaf_eclasses)
        reference = not would_create_cycle_sets(egraph, matched_eclasses, leaf_eclasses, self._sets)
        assert verdict == reference, (list(matched_eclasses), list(leaf_eclasses), verdict)
        self.calls += 1
        self.refused += not verdict
        return verdict

    def end_iteration(self, egraph) -> int:
        self._sets = {}
        return super().end_iteration(egraph)
