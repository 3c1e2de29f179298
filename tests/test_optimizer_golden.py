"""Oracle parity: the one search path reproduces its reference implementations.

For a few small seed models, every exploration iteration is re-derived with
the reference implementations only -- the naive interpretive matcher, the
Cartesian-product multi-pattern join, and on-demand shape inference for
conditions -- and each rule's condition-filtered match count must equal the
count the runner's rule trie, hash join and compiled conditions produced on
the same frozen e-graph (:class:`oracle_parity.OracleParityObserver`).  A
divergence means a fast path changed the semantics of the pipeline, not just
its speed.  ``tests/test_golden_refactor.py`` pins the resulting
trajectories themselves.
"""

from __future__ import annotations

import pytest

from oracle_parity import OracleParityObserver
from repro.core.config import TensatConfig
from repro.core.optimizer import TensatOptimizer
from repro.core.session import OptimizationSession
from repro.models import build_model
from repro.rules.library import default_ruleset

#: Small, fast exploration budgets; golden tests check equivalence, not scale.
BASE = dict(node_limit=2_000, iter_limit=5, k_multi=1)


@pytest.mark.slow
@pytest.mark.parametrize("model", ["nasrnn", "resnext", "squeezenet"])
def test_search_path_matches_oracles_every_iteration(model):
    """k_multi=2 keeps the multi-pattern join and its conditions active
    across a rebuild boundary."""
    rules = default_ruleset()
    oracle = OracleParityObserver(rules.rewrites, rules.multi_rewrites, k_multi=2)
    config = TensatConfig(**{**BASE, "k_multi": 2, "extraction": "greedy"})
    session = OptimizationSession(
        build_model(model, "tiny"), rules=rules, config=config, observers=[oracle]
    )
    report = session.explore()
    assert oracle.iterations_checked == report.num_iterations > 1
    assert oracle.total_matches > 0


@pytest.mark.slow
def test_delta_matching_off_matches_delta_on():
    """Disabling delta seeding must not change the trajectory either."""
    config = dict(BASE, extraction="greedy")
    graph = build_model("nasrnn", "tiny")
    with_delta = TensatOptimizer(config=TensatConfig(delta_matching=True, **config)).optimize(graph)
    without = TensatOptimizer(config=TensatConfig(delta_matching=False, **config)).optimize(graph)
    assert with_delta.stats.num_enodes == without.stats.num_enodes
    assert with_delta.stats.optimized_cost == without.stats.optimized_cost
    assert with_delta.stats.stop_reason == without.stats.stop_reason
