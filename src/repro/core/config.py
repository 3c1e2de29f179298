"""Configuration of the TENSAT optimizer (paper Section 6.1 defaults)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.egraph.cycles import CYCLE_FILTERS
from repro.egraph.extraction import EXTRACTORS
from repro.egraph.scheduler import SCHEDULERS

__all__ = ["TensatConfig"]


def _is_real(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TensatConfig:
    """All knobs of the TENSAT pipeline.

    The defaults mirror the paper's experimental setup: at most 50 000 e-nodes,
    at most 15 exploration iterations, one iteration of multi-pattern rewrites
    (``k_multi = 1``), efficient cycle filtering, and ILP extraction without
    cycle constraints with a one-hour solver limit.
    """

    # ------------------------------------------------------------------ #
    # Exploration limits
    # ------------------------------------------------------------------ #
    #: Maximum number of e-nodes (paper: N_max = 50 000).
    node_limit: int = 50_000
    #: Maximum number of exploration iterations (paper: k_max = 15).
    iter_limit: int = 15
    #: Iterations in which multi-pattern rules are applied (paper: k_multi = 1).
    k_multi: int = 1
    #: Exploration wall-clock limit in seconds.
    exploration_time_limit: float = 3600.0
    #: Optional safety cap on the Cartesian-product size per multi-pattern rule
    #: per iteration (None reproduces the paper exactly).
    max_multi_combinations: Optional[int] = None
    #: Rule scheduling during exploration: "simple" (paper behaviour -- every
    #: rule fires every iteration) or "backoff" (egg-style: rules whose match
    #: count explodes are temporarily banned, keeping the e-graph focused when
    #: the node budget is much smaller than the paper's 50 000).
    scheduler: str = "simple"
    #: Backoff scheduler match budget per rule per iteration.
    scheduler_match_limit: int = 1_000
    #: Backoff scheduler base ban length in iterations.
    scheduler_ban_length: int = 5
    #: Seed each exploration iteration's search from the e-classes dirtied by
    #: the previous iteration; iteration 0 is always a full search.
    delta_matching: bool = True

    # ------------------------------------------------------------------ #
    # Cycle handling
    # ------------------------------------------------------------------ #
    #: "efficient" (Algorithm 2), "vanilla", or "none" (requires ILP cycle constraints).
    cycle_filter: str = "efficient"

    # ------------------------------------------------------------------ #
    # Extraction
    # ------------------------------------------------------------------ #
    #: "ilp" (HiGHS, greedy fallback) or "greedy"; see docs/extraction.md.
    extraction: str = "ilp"
    #: Prune dominated e-nodes and fix singleton e-classes before solving
    #: (optimum-preserving; shrinks the ILP variable space).
    extraction_prune: bool = True
    #: Seed the ILP from the greedy solution (objective cutoff for HiGHS,
    #: and the answer when the solver returns nothing).  Optimum-preserving.
    ilp_warm_start: bool = True
    #: Include the topological-order (cycle) constraints in the ILP.
    ilp_cycle_constraints: bool = False
    #: ILP solver time limit in seconds (paper: 3600); the only extraction budget.
    ilp_time_limit: float = 3600.0
    #: Relative MIP optimality gap (0 = prove optimality, as the paper's SCIP setup does).
    ilp_mip_gap: float = 0.0

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    #: Re-run shape validation and interface checks on the optimized graph.
    validate_output: bool = True
    #: Additionally execute original and optimized graphs on random data and
    #: compare outputs (slow; intended for tests and examples).
    verify_numerically: bool = False

    def __post_init__(self) -> None:
        for knob, table in (
            ("extraction", EXTRACTORS),
            ("scheduler", SCHEDULERS),
            ("cycle_filter", CYCLE_FILTERS),
        ):
            value = getattr(self, knob)
            if value not in table:
                raise ValueError(f"unknown {knob} {value!r}; available: {', '.join(table)}")
        # A float or bool count would run silently (2.5 nodes, True
        # iterations), and a string would fail later with a bare TypeError.
        for knob, low in (
            ("node_limit", 1),
            ("iter_limit", 1),
            ("k_multi", 0),
            ("scheduler_match_limit", 0),
            ("scheduler_ban_length", 0),
        ):
            value = getattr(self, knob)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{knob} must be an int >= {low}, got {value!r}")
        if (
            self.cycle_filter == "none"
            and self.extraction == "ilp"
            and not self.ilp_cycle_constraints
        ):
            raise ValueError(
                "with cycle_filter='none' the ILP needs cycle constraints "
                "(set ilp_cycle_constraints=True) or extraction may return a cyclic graph"
            )
        # An invalid time limit silently means no limit: HiGHS solves
        # unbounded, and the runner's ``elapsed > nan`` is never true.
        for knob in ("exploration_time_limit", "ilp_time_limit"):
            limit = getattr(self, knob)
            if not (_is_real(limit) and math.isfinite(limit) and limit > 0):
                raise ValueError(f"{knob} must be positive and finite, got {limit!r}")
        gap = self.ilp_mip_gap
        if not (_is_real(gap) and math.isfinite(gap) and gap >= 0):
            raise ValueError(f"ilp_mip_gap must be finite and >= 0, got {gap!r}")
        cap = self.max_multi_combinations
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 0):
            raise ValueError(f"max_multi_combinations must be None or an int >= 0, got {cap!r}")

    def with_overrides(self, **kwargs) -> "TensatConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def paper_defaults(cls) -> "TensatConfig":
        """The configuration used for the paper's headline results (Table 1)."""
        return cls()

    @classmethod
    def fast(cls) -> "TensatConfig":
        """A small configuration for unit tests and quick demos."""
        return cls(node_limit=5_000, iter_limit=6, k_multi=1, ilp_time_limit=60.0)
