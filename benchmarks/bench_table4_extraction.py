"""Table 4: greedy versus ILP extraction (BERT, NasRNN, NasNet-A).

The paper reports the runtime of the original graph and of the graphs
extracted greedily and by ILP from the same e-graph (k_multi = 1).  Greedy
fails to realise the concat/split merges because it ignores sharing, so its
graphs are no better (sometimes worse) than the original, while ILP improves
on both.

On top of the paper's comparison this module records the extraction-at-scale
instrumentation (see docs/extraction.md): the dominated-node prune ratio,
cold- versus warm-started ILP wall time, and cold- versus warm-started runs of
the reference branch and bound on NasRNN -- all persisted to
``benchmarks/results/table4_extraction.json`` (uploaded as a CI artifact).
"""

import time

import pytest

from benchmarks.common import bench_scale, cost_model, format_table, tensat_config, write_result
from repro.core import OptimizationSession
from repro.egraph.extraction.bnb import solve_branch_and_bound
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.extraction.ilp import ILPExtractor
from repro.egraph.extraction.problem import build_extraction_problem, warm_start_solution
from repro.ir.convert import recexpr_to_graph
from repro.models import build_model

TABLE4_MODELS = ["bert", "nasrnn", "nasnet"]

#: BnB is the pure-Python reference solver; on bench-scale problems it only
#: gets this long (the point is the warm/cold comparison, not optimality).
BNB_TIME_LIMIT = 10.0


def _timed_extract(extractor, egraph, root):
    start = time.perf_counter()
    result = extractor.extract(egraph, root)
    return result, time.perf_counter() - start


def _timed_bnb(egraph, root, node_cost, flist, warm):
    """Solve with the reference branch and bound, cold or pruned + warm-started."""
    start = time.perf_counter()
    problem = build_extraction_problem(
        egraph, root, node_cost, filter_list=flist, prune_dominated=warm, collapse_singletons=warm
    )
    incumbent = warm_start_solution(problem) if warm else None
    result = solve_branch_and_bound(
        problem.c, problem.a_ub, problem.b_ub, problem.a_eq, problem.b_eq,
        problem.lower, problem.upper, problem.integrality,
        time_limit=BNB_TIME_LIMIT, incumbent=incumbent,
    )
    return result, incumbent is not None, time.perf_counter() - start


def _generate_table4():
    cm = cost_model()
    rows = []
    data = {}
    for model in TABLE4_MODELS:
        graph = build_model(model, bench_scale())
        original = cm.graph_cost(graph)
        session = OptimizationSession(graph, cost_model=cm, config=tensat_config(model, k_multi=1))
        session.explore()
        egraph, root, cycle_filter = session.egraph, session.root, session.cycle_filter
        node_cost = cm.extraction_cost_function()
        flist = cycle_filter.filter_list
        ilp_time_limit = tensat_config(model).ilp_time_limit

        greedy_res, greedy_s = _timed_extract(
            GreedyExtractor(node_cost, filter_list=flist), egraph, root
        )
        greedy_cost = cm.graph_cost(recexpr_to_graph(greedy_res.expr))

        cold = ILPExtractor(
            node_cost, filter_list=flist, time_limit=ilp_time_limit, mip_rel_gap=0.01,
            reduce_problem=False, warm_start=False,
        )
        cold_res, cold_s = _timed_extract(cold, egraph, root)
        cold_cost = cm.graph_cost(recexpr_to_graph(cold_res.expr))

        warm = ILPExtractor(
            node_cost, filter_list=flist, time_limit=ilp_time_limit, mip_rel_gap=0.01,
            reduce_problem=True, warm_start=True,
        )
        warm_res, warm_s = _timed_extract(warm, egraph, root)
        warm_cost = cm.graph_cost(recexpr_to_graph(warm_res.expr))

        rows.append([
            model, f"{original:.4f}", f"{greedy_cost:.4f}", f"{warm_cost:.4f}",
            f"{warm.last_solve_info.prune_ratio:.2f}x", f"{cold_s:.2f}s", f"{warm_s:.2f}s",
        ])
        data[model] = {
            "original_cost_ms": original,
            "greedy_cost_ms": greedy_cost,
            "ilp_cost_ms": warm_cost,
            "ilp_cold_cost_ms": cold_cost,
            "greedy_seconds": greedy_s,
            "ilp_cold_seconds": cold_s,
            "ilp_warm_seconds": warm_s,
            "prune_ratio": warm.last_solve_info.prune_ratio,
            "num_variables_cold": cold.last_solve_info.num_variables,
            "num_variables_warm": warm.last_solve_info.num_variables,
            "warm_started": warm.last_solve_info.warm_started,
            "extraction_stages": {k: round(v, 4) for k, v in warm_res.stages.items()},
        }

        if model == "nasrnn":
            # BnB cold-vs-warm on the model the paper's Table 4 centres on:
            # the greedy incumbent lets the search prune from the first node.
            bnb_cold, _, bnb_cold_s = _timed_bnb(egraph, root, node_cost, flist, warm=False)
            bnb_warm, incumbent_used, bnb_warm_s = _timed_bnb(
                egraph, root, node_cost, flist, warm=True
            )
            data[model]["bnb_cold_seconds"] = bnb_cold_s
            data[model]["bnb_warm_seconds"] = bnb_warm_s
            data[model]["bnb_cold_status"] = bnb_cold.status
            data[model]["bnb_warm_status"] = bnb_warm.status
            data[model]["bnb_warm_incumbent_used"] = incumbent_used

    table = format_table(
        ["model", "original (ms)", "greedy (ms)", "ILP (ms)", "prune", "ILP cold", "ILP warm"],
        rows,
    )
    write_result("table4_extraction", table, data)
    return data


def _check_table4(data):
    for model, entry in data.items():
        # ILP never loses to greedy, and never loses to the original graph.
        assert entry["ilp_cost_ms"] <= entry["greedy_cost_ms"] + 1e-9
        assert entry["ilp_cost_ms"] <= entry["original_cost_ms"] + 1e-9
        # Warm-starting and pruning are optimum-preserving.
        assert entry["ilp_cost_ms"] == pytest.approx(entry["ilp_cold_cost_ms"], rel=0.02)
    # Dominated-node pruning must actually shrink the NasRNN variable space.
    assert data["nasrnn"]["prune_ratio"] > 1.0
    assert data["nasrnn"]["num_variables_warm"] < data["nasrnn"]["num_variables_cold"]
    # On the paper-sized workloads greedy fails to beat the original graph on
    # BERT / NasNet-A because it cannot account for sharing; at the default
    # "tiny" benchmark scale fusion alone already helps, so this stronger check
    # only applies to the larger scales.
    if bench_scale() != "tiny":
        assert any(
            entry["greedy_cost_ms"] >= entry["original_cost_ms"] - 1e-9 for entry in data.values()
        )


@pytest.mark.benchmark(group="table4")
def test_table4_greedy_vs_ilp(benchmark):
    data = benchmark.pedantic(_generate_table4, rounds=1, iterations=1)
    _check_table4(data)


if __name__ == "__main__":
    _check_table4(_generate_table4())
