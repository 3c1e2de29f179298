"""Cycle handling for extraction (paper Section 5.2).

Valid rewrites can introduce cycles at the e-class level (paper Figure 3):
an e-node in e-class ``m`` may (transitively) have ``m`` itself among its
children e-classes.  The extracted graph must be a DAG, so TENSAT either

* encodes acyclicity in the ILP via topological-order variables (slow), or
* keeps the e-graph free of such cycles during exploration so the ILP does
  not need cycle constraints.

This module implements both cycle-filtering strategies from the paper:

* **Vanilla**: before applying each substitution, run a fresh reachability
  pass over the whole e-graph and discard the substitution if it would create
  a cycle -- ``O(n_m * N)`` per iteration.
* **Efficient** (Algorithm 2): build one descendants map per iteration and use
  it as a constant-time *pre-filter* per match; since the map goes stale
  within the iteration, a *post-processing* DFS pass collects the cycles that
  slipped through and resolves each by adding its most recently inserted
  e-node to a *filter list*.  Filtered nodes are treated as removed: the
  descendants map, the DFS, and extraction all ignore them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode

__all__ = [
    "FilterList",
    "Descendants",
    "descendants_map",
    "would_create_cycle",
    "reaches",
    "find_cycles",
    "resolve_cycles",
    "CycleFilter",
    "VanillaCycleFilter",
    "EfficientCycleFilter",
    "NoCycleFilter",
    "CYCLE_FILTERS",
]


class FilterList:
    """Set of e-nodes considered removed from the e-graph.

    Nodes are stored canonicalized against the current union-find; membership
    checks re-canonicalise so the list stays valid across unions.
    """

    def __init__(self) -> None:
        self._nodes: Set[ENode] = set()

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes)

    def add(self, egraph: EGraph, enode: ENode) -> None:
        self._nodes.add(egraph.canonicalize(enode))

    def contains(self, egraph: EGraph, enode: ENode) -> bool:
        if not self._nodes:
            return False
        canonical = egraph.canonicalize(enode)
        if canonical in self._nodes:
            return True
        # Entries may have been inserted before later unions; re-canonicalise lazily.
        stale = {n for n in self._nodes if egraph.canonicalize(n) == canonical}
        if stale:
            self._nodes -= stale
            self._nodes.add(canonical)
            return True
        return False

    def refresh(self, egraph: EGraph) -> None:
        """Re-canonicalise all entries (cheap; called once per iteration)."""
        self._nodes = {egraph.canonicalize(n) for n in self._nodes}

    def as_set(self, egraph: EGraph) -> FrozenSet[ENode]:
        self.refresh(egraph)
        return frozenset(self._nodes)


# ---------------------------------------------------------------------- #
# Reachability
# ---------------------------------------------------------------------- #


def _children_of_class(egraph: EGraph, eclass_id: int, filtered: FrozenSet[ENode]) -> Set[int]:
    children: Set[int] = set()
    for node in egraph[eclass_id].nodes:
        canonical = egraph.canonicalize(node)
        if filtered and canonical in filtered:
            continue
        # canonicalize() already mapped every child through find().
        children.update(canonical.children)
    return children


@dataclass(frozen=True)
class Descendants:
    """Per-iteration reachability relation over dense e-class indices.

    ``index`` numbers the e-classes the pass visited; bit ``index[d]`` of
    ``bits[index[c]]`` is set when ``d`` is reachable from ``c``.  One Python
    int per class keeps the relation under about ``classes**2 / 8`` bytes, where
    one ``set`` per class grew to 137 MB at 3.9k classes.  A class that is
    not indexed (created after the pass) reaches nothing and is reached by
    nothing.
    """

    index: Dict[int, int] = field(default_factory=dict)
    bits: List[int] = field(default_factory=list)

    def reaches(self, source: int, target: int) -> bool:
        """Did ``target`` lie below ``source`` when the pass ran (canonical ids)?"""
        row = self.index.get(source)
        column = self.index.get(target)
        if row is None or column is None:
            return False
        return bool(self.bits[row] >> column & 1)


def descendants_map(egraph: EGraph, filter_list: Optional[FilterList] = None) -> Descendants:
    """Map every e-class to the e-classes reachable through unfiltered e-nodes.

    One pass over the e-graph (iterative DFS with memoisation).  If the
    e-graph happens to contain cycles (possible mid-iteration before the
    post-processing step has run), reachability is still well defined; nodes
    on a cycle simply see each other as descendants as far as the already
    finished portion of the traversal allows, which keeps the pre-filter a
    sound approximation exactly as the paper describes.
    """
    filtered = filter_list.as_set(egraph) if filter_list is not None else frozenset()
    index: Dict[int, int] = {}
    bits: List[int] = []
    done = bytearray()  # by dense index; indexed but not done = on the stack

    for start in egraph.eclass_ids():
        start = egraph.find(start)
        if start in index:
            continue
        index[start] = len(bits)
        bits.append(0)
        done.append(0)
        stack: List[Tuple[int, Iterable[int]]] = [
            (index[start], iter(_children_of_class(egraph, start, filtered)))
        ]
        while stack:
            row, it = stack[-1]
            advanced = False
            for child in it:
                column = index.get(child)
                if column is None:
                    column = index[child] = len(bits)
                    bits.append(0)
                    done.append(0)
                    stack.append((column, iter(_children_of_class(egraph, child, filtered))))
                    advanced = True
                    break  # ``row`` gains the child's bits when it finishes
                bits[row] |= 1 << column
                if done[column]:
                    bits[row] |= bits[column]
                # child on stack (cycle): skip, handled by post-processing
            if not advanced:
                done[row] = 1
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    bits[parent] |= (1 << row) | bits[row]
    return Descendants(index, bits)


def reaches(
    egraph: EGraph,
    source: int,
    target: int,
    filter_list: Optional[FilterList] = None,
) -> bool:
    """Fresh DFS: is ``target`` reachable from ``source`` (parent-to-child direction)?"""
    filtered = filter_list.as_set(egraph) if filter_list is not None else frozenset()
    source, target = egraph.find(source), egraph.find(target)
    if source == target:
        return True
    seen: Set[int] = {source}
    stack: List[int] = [source]
    while stack:
        cls = stack.pop()
        for child in _children_of_class(egraph, cls, filtered):
            if child == target:
                return True
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


def would_create_cycle(
    egraph: EGraph,
    matched_eclasses: Sequence[int],
    leaf_eclasses: Sequence[int],
    desc: Descendants,
) -> bool:
    """Pre-filter check (Algorithm 2, ``WillCreateCycle``).

    Applying a rewrite adds, to each matched e-class ``m``, a new sub-term
    whose leaves are the e-classes the substitution binds.  If some leaf ``s``
    can already reach ``m``, then after the rewrite ``m`` reaches ``s`` too and
    a cycle appears.  Sound but not complete: relations added earlier in the
    same iteration are not in ``desc`` (the paper handles those in the
    post-processing step).
    """
    for m in matched_eclasses:
        m = egraph.find(m)
        for leaf in leaf_eclasses:
            leaf = egraph.find(leaf)
            if leaf == m or desc.reaches(leaf, m):
                return True
    return False


# ---------------------------------------------------------------------- #
# Post-processing: find and resolve cycles
# ---------------------------------------------------------------------- #


def find_cycles(
    egraph: EGraph, filter_list: Optional[FilterList] = None
) -> List[List[Tuple[int, ENode]]]:
    """One DFS pass over the e-graph collecting e-class-level cycles.

    Each cycle is returned as a list of ``(eclass_id, enode)`` edges, where
    ``enode`` belongs to ``eclass_id`` and has the next e-class on the cycle
    among its children.  A single pass may return many (possibly overlapping)
    cycles; the caller loops until a pass finds none.
    """
    filtered = filter_list.as_set(egraph) if filter_list is not None else frozenset()
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    cycles: List[List[Tuple[int, ENode]]] = []

    def class_edges(cls: int) -> List[Tuple[ENode, int]]:
        edges: List[Tuple[ENode, int]] = []
        seen_edges = set()
        for node in egraph[cls].nodes:
            canonical = egraph.canonicalize(node)
            if filtered and canonical in filtered:
                continue
            # canonicalize() already mapped every child through find().
            for child in canonical.children:
                key = (canonical, child)
                if key not in seen_edges:
                    seen_edges.add(key)
                    edges.append(key)
        return edges

    # Explicit-stack DFS.  ``path_edges`` holds the (class, enode) edges taken
    # from the DFS root down to the class currently being expanded, and
    # ``path_index`` maps each gray class to its position on that path so a
    # back edge can be turned into the list of edges forming the cycle.
    for start in egraph.eclass_ids():
        start = egraph.find(start)
        if color.get(start, WHITE) != WHITE:
            continue
        color[start] = GRAY
        path_edges: List[Tuple[int, ENode]] = []
        path_index: Dict[int, int] = {start: 0}
        # Stack frames: (class, iterator over its edges)
        frames: List[Tuple[int, Iterable[Tuple[ENode, int]]]] = [(start, iter(class_edges(start)))]
        while frames:
            cls, edge_iter = frames[-1]
            descended = False
            for enode, child in edge_iter:
                child_color = color.get(child, WHITE)
                if child_color == GRAY:
                    # Back edge -> cycle from ``child`` down to ``cls`` plus this edge.
                    start_pos = path_index[child]
                    cycle = path_edges[start_pos:] + [(cls, enode)]
                    cycles.append(cycle)
                elif child_color == WHITE:
                    color[child] = GRAY
                    path_edges.append((cls, enode))
                    path_index[child] = len(path_edges)
                    frames.append((child, iter(class_edges(child))))
                    descended = True
                    break
            if not descended:
                color[cls] = BLACK
                frames.pop()
                if path_edges and frames:
                    path_edges.pop()
                path_index.pop(cls, None)
    return cycles


def resolve_cycles(
    egraph: EGraph,
    filter_list: FilterList,
    cycles: Sequence[List[Tuple[int, ENode]]],
) -> int:
    """Resolve each cycle by filtering out its most recently added e-node."""
    resolved = 0
    for cycle in cycles:
        if not cycle:
            continue
        # Skip cycles already broken by an earlier resolution in this batch.
        if any(filter_list.contains(egraph, enode) for _, enode in cycle):
            continue
        newest = max(cycle, key=lambda entry: egraph.node_birth(entry[1]))
        filter_list.add(egraph, newest[1])
        resolved += 1
    return resolved


# ---------------------------------------------------------------------- #
# Strategy objects used by the Runner
# ---------------------------------------------------------------------- #


@dataclass
class CycleFilter:
    """Interface for cycle-filtering strategies plugged into the exploration loop."""

    filter_list: FilterList = field(default_factory=FilterList)

    def begin_iteration(self, egraph: EGraph) -> None:
        """Called once at the start of every exploration iteration."""

    def allows(self, egraph: EGraph, matched_eclasses: Sequence[int], leaf_eclasses: Sequence[int]) -> bool:
        """Per-match check run just before a substitution is applied."""
        return True

    def end_iteration(self, egraph: EGraph) -> int:
        """Called after all substitutions of an iteration; returns #cycles resolved."""
        return 0

    @property
    def name(self) -> str:
        return type(self).__name__


class NoCycleFilter(CycleFilter):
    """Disable filtering entirely (used with ILP cycle constraints)."""


class VanillaCycleFilter(CycleFilter):
    """Full reachability pass per candidate substitution (paper Section 5.2, vanilla)."""

    def allows(self, egraph: EGraph, matched_eclasses: Sequence[int], leaf_eclasses: Sequence[int]) -> bool:
        for m in matched_eclasses:
            for leaf in leaf_eclasses:
                if reaches(egraph, leaf, m, self.filter_list):
                    return False
        return True

    def end_iteration(self, egraph: EGraph) -> int:
        # The per-match check is complete w.r.t. the state it saw, but checks
        # within one iteration still interleave with applications, so a
        # clean-up pass keeps the invariant (and mirrors Algorithm 2's loop).
        return _postprocess(egraph, self.filter_list)


class EfficientCycleFilter(CycleFilter):
    """Descendants-map pre-filter + DFS post-processing (paper Algorithm 2).

    The map lives from ``begin_iteration`` to ``end_iteration`` only: the old
    map is dropped before the new one is built, so two maps never coexist,
    and none is held across iterations or into extraction.
    """

    def __init__(self) -> None:
        super().__init__()
        self._descendants = Descendants()

    def begin_iteration(self, egraph: EGraph) -> None:
        self._descendants = Descendants()
        self.filter_list.refresh(egraph)
        self._descendants = descendants_map(egraph, self.filter_list)

    def allows(self, egraph: EGraph, matched_eclasses: Sequence[int], leaf_eclasses: Sequence[int]) -> bool:
        return not would_create_cycle(egraph, matched_eclasses, leaf_eclasses, self._descendants)

    def end_iteration(self, egraph: EGraph) -> int:
        self._descendants = Descendants()
        return _postprocess(egraph, self.filter_list)


#: Cycle-filter name -> class.  :class:`~repro.core.config.TensatConfig`
#: validation and the CLI's ``--cycle-filter`` choices read this table; the
#: first entry is the default.
CYCLE_FILTERS = {
    "efficient": EfficientCycleFilter,
    "vanilla": VanillaCycleFilter,
    "none": NoCycleFilter,
}


def _postprocess(egraph: EGraph, filter_list: FilterList) -> int:
    """Loop DFS passes until the e-graph (minus filtered nodes) is acyclic."""
    total = 0
    while True:
        cycles = find_cycles(egraph, filter_list)
        if not cycles:
            return total
        resolved = resolve_cycles(egraph, filter_list, cycles)
        if resolved == 0:
            # Every remaining cycle was already broken; re-check on next pass.
            resolved_extra = 0
            for cycle in cycles:
                if not any(filter_list.contains(egraph, enode) for _, enode in cycle):
                    newest = max(cycle, key=lambda entry: egraph.node_birth(entry[1]))
                    filter_list.add(egraph, newest[1])
                    resolved_extra += 1
            if resolved_extra == 0:
                return total
            total += resolved_extra
        else:
            total += resolved
