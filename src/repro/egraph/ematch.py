"""E-matching: searching for pattern matches in an e-graph.

Given a pattern ``l`` (a term with variables) and an e-graph, e-matching finds
all substitutions ``sigma`` (variable -> e-class) and root e-classes such that
``l[sigma]`` is represented by the root e-class (paper Section 2.2).

Three search paths live behind the same contract:

* the **compiled virtual machine** (:mod:`repro.egraph.machine`), which runs a
  flat per-pattern instruction program over explicit registers -- this is what
  :func:`search_pattern` / :func:`search_eclass` use;
* the **shared-prefix rule trie** (:class:`~repro.egraph.machine.TrieMatcher`),
  which merges every rule's program into one trie per root operator and
  matches all rules in a single traversal per op bucket -- the saturation
  runner's search;
* the **naive backtracking matcher** (:func:`naive_search_pattern` /
  :func:`naive_search_eclass`), the original interpretive implementation that
  re-walks the pattern tree through recursive generators.  It is kept as the
  reference implementation: the equivalence tests, the oracle-parity test and
  ``benchmarks/bench_ematch.py`` check the compiled paths against it.

All three return the same canonical match sets in the same deterministic
order (sorted by root e-class, then bindings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.egraph.egraph import EGraph
from repro.egraph.pattern import Pattern, PatternTerm, PatternVar, Substitution

__all__ = [
    "Match",
    "search_pattern",
    "search_eclass",
    "count_matches",
    "naive_search_pattern",
    "naive_search_eclass",
]


@dataclass(frozen=True)
class Match:
    """A single pattern match: the root e-class and the variable bindings."""

    eclass: int
    subst: Dict[str, int]

    def canonical(self, egraph: EGraph) -> "Match":
        return Match(
            eclass=egraph.find(self.eclass),
            subst={k: egraph.find(v) for k, v in self.subst.items()},
        )


# --------------------------------------------------------------------- #
# Default interface: thin wrappers over the compiled VM
# --------------------------------------------------------------------- #


def search_pattern(egraph: EGraph, pattern: Pattern) -> List[Match]:
    """All matches of ``pattern`` anywhere in the e-graph (compiled VM)."""
    from repro.egraph.machine import vm_search_pattern

    return vm_search_pattern(egraph, pattern)


def search_eclass(egraph: EGraph, pattern: Pattern, eclass_id: int) -> List[Match]:
    """All matches of ``pattern`` rooted at ``eclass_id`` (compiled VM)."""
    from repro.egraph.machine import vm_search_eclass

    return vm_search_eclass(egraph, pattern, eclass_id)


def count_matches(egraph: EGraph, pattern: Pattern) -> int:
    return len(search_pattern(egraph, pattern))


# --------------------------------------------------------------------- #
# Naive backtracking matcher (reference implementation)
# --------------------------------------------------------------------- #


def _match_term(
    egraph: EGraph,
    term: PatternTerm,
    eclass_id: int,
    subst: Substitution,
) -> Iterator[Substitution]:
    """Yield all extensions of ``subst`` matching ``term`` against ``eclass_id``."""
    eclass_id = egraph.find(eclass_id)

    if isinstance(term, PatternVar):
        bound = subst.get(term.name)
        if bound is None:
            new_subst = dict(subst)
            new_subst[term.name] = eclass_id
            yield new_subst
        elif egraph.find(bound) == eclass_id:
            yield subst
        return

    arity = len(term.children)
    for enode in egraph[eclass_id].nodes:
        if enode.op != term.op or len(enode.children) != arity:
            continue
        if arity == 0:
            yield subst
            continue
        # Match children left-to-right, threading the substitution.
        stack: List[Substitution] = [subst]
        for child_term, child_class in zip(term.children, enode.children):
            next_stack: List[Substitution] = []
            for s in stack:
                next_stack.extend(_match_term(egraph, child_term, child_class, s))
            stack = next_stack
            if not stack:
                break
        for s in stack:
            yield s


def naive_search_eclass(egraph: EGraph, pattern: Pattern, eclass_id: int) -> List[Match]:
    """All matches of ``pattern`` rooted at ``eclass_id`` (interpretive matcher)."""
    from repro.egraph.machine import match_sort_key

    eclass_id = egraph.find(eclass_id)
    results: List[Match] = []
    seen = set()
    for subst in _match_term(egraph, pattern.root, eclass_id, {}):
        canon = {k: egraph.find(v) for k, v in subst.items()}
        key = tuple(sorted(canon.items()))
        if key in seen:
            continue
        seen.add(key)
        results.append(Match(eclass=eclass_id, subst=canon))
    results.sort(key=match_sort_key)
    return results


def naive_search_pattern(egraph: EGraph, pattern: Pattern) -> List[Match]:
    """All matches of ``pattern`` anywhere in the e-graph (interpretive matcher).

    The search is seeded from e-classes that contain at least one e-node whose
    operator equals the pattern root's operator, which avoids a full scan per
    e-class for selective patterns.
    """
    from repro.egraph.machine import match_sort_key

    root = pattern.root
    matches: List[Match] = []

    if isinstance(root, PatternVar):
        # Degenerate: matches every e-class with an empty binding to itself.
        for eclass in egraph.classes():
            matches.append(Match(eclass=eclass.id, subst={root.name: eclass.id}))
        matches.sort(key=match_sort_key)
        return matches

    by_op = egraph.nodes_by_op().get(root.op, [])
    candidate_classes = sorted({egraph.find(eclass_id) for eclass_id, _ in by_op})
    for eclass_id in candidate_classes:
        matches.extend(naive_search_eclass(egraph, pattern, eclass_id))
    return matches
