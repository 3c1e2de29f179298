"""Ablation (DESIGN.md): HiGHS (scipy.milp) versus the pure-Python reference branch and bound.

Not a paper experiment.  Extraction always solves with HiGHS; the
branch-and-bound solver is kept as a reference to cross-check the formulation.
This ablation builds the extraction problem once, solves it with both, verifies
they find the same optimum on a small e-graph and reports their solve times.
"""

import time

import pytest

from benchmarks.common import cost_model, format_table, write_result
from repro.core import OptimizationSession, TensatConfig
from repro.egraph.extraction.bnb import solve_branch_and_bound
from repro.egraph.extraction.ilp import ILPExtractor
from repro.models import build_model


def _generate():
    cm = cost_model()
    graph = build_model("nasrnn", "tiny", steps=1, gates=2)
    config = TensatConfig(node_limit=400, iter_limit=4, k_multi=1, ilp_time_limit=30)
    session = OptimizationSession(graph, cost_model=cm, config=config)
    session.explore()
    egraph, root, cycle_filter = session.egraph, session.root, session.cycle_filter
    extractor = ILPExtractor(
        cm.extraction_cost_function(), filter_list=cycle_filter.filter_list,
        time_limit=60, warm_start=False,
    )

    start = time.perf_counter()
    extractor.extract(egraph, root)
    highs_s = time.perf_counter() - start
    info = extractor.last_solve_info

    # The same problem HiGHS solved, built inside the timed region as the
    # extractor builds it inside its own.
    start = time.perf_counter()
    problem = extractor.build_problem(egraph, root)
    bnb = solve_branch_and_bound(
        problem.c, problem.a_ub, problem.b_ub, problem.a_eq, problem.b_eq,
        problem.lower, problem.upper, problem.integrality, time_limit=60,
    )
    bnb_s = time.perf_counter() - start

    data = {
        "highs": {"objective_ms": info.objective, "seconds": highs_s, "status": info.status},
        "bnb": {"objective_ms": bnb.objective, "seconds": bnb_s, "status": bnb.status},
    }
    rows = [
        [name, f"{entry['objective_ms']:.5f}", f"{entry['seconds']:.3f}", entry["status"]]
        for name, entry in data.items()
    ]
    table = format_table(["solver", "ILP objective (ms)", "solve time (s)", "status"], rows)
    write_result("ablation_ilp_backend", table, data)
    return data


@pytest.mark.benchmark(group="ablation-ilp-backend")
def test_ilp_backend_ablation(benchmark):
    data = benchmark.pedantic(_generate, rounds=1, iterations=1)
    assert data["bnb"]["status"] == "optimal"
    assert data["highs"]["objective_ms"] == pytest.approx(data["bnb"]["objective_ms"], rel=1e-6)
