"""Extraction: selecting the best represented term from an e-graph.

Two extractors are provided, matching the paper's Section 5:

* :class:`~repro.egraph.extraction.greedy.GreedyExtractor` -- bottom-up
  fixpoint that picks, per e-class, the e-node with the smallest subtree cost.
  Fast, but ignores sharing between subtrees and can therefore miss the
  optimum (paper Section 6.5, Table 4).
* :class:`~repro.egraph.extraction.ilp.ILPExtractor` -- 0/1 integer linear
  program over e-node selection variables, optionally with topological-order
  variables that forbid cycles (paper constraints (1)-(5)), solved by HiGHS.

The ILP runs on top of the problem-reduction pass in
:mod:`repro.egraph.extraction.problem` (dominated-node pruning + singleton
collapse) and is warm-started from the greedy solution.
:func:`~repro.egraph.extraction.bnb.solve_branch_and_bound` is a pure-Python
reference solver that tests compare HiGHS against (see ``docs/extraction.md``).
"""

from repro.egraph.extraction.base import ExtractionResult, Extractor
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.extraction.ilp import ILPExtractor
from repro.egraph.extraction.problem import ReductionStats, build_extraction_problem, warm_start_solution

__all__ = [
    "ExtractionResult",
    "Extractor",
    "GreedyExtractor",
    "ILPExtractor",
    "ReductionStats",
    "build_extraction_problem",
    "warm_start_solution",
    "EXTRACTORS",
]


def _make_ilp(node_cost, config, filter_list) -> ILPExtractor:
    return ILPExtractor(
        node_cost,
        with_cycle_constraints=config.ilp_cycle_constraints,
        filter_list=filter_list,
        time_limit=config.ilp_time_limit,
        mip_rel_gap=config.ilp_mip_gap,
        reduce_problem=config.extraction_prune,
        warm_start=config.ilp_warm_start,
    )


#: Extractor name -> constructor ``(node_cost, config, filter_list) -> Extractor``,
#: where ``config`` is a :class:`~repro.core.config.TensatConfig`.  Its
#: validation, the CLI's ``--extraction`` choices and the session's extractor
#: construction read this table; the first entry is the default.
EXTRACTORS = {
    "ilp": _make_ilp,
    "greedy": lambda node_cost, config, filter_list: GreedyExtractor(node_cost, filter_list=filter_list),
}
