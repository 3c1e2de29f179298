"""Tests for ILP extraction (formulation, reference solver, cycle constraints, filter list)."""

import numpy as np
import pytest

from repro.core.config import TensatConfig
from repro.core.events import RecordingObserver
from repro.core.session import OptimizationSession
from repro.egraph.cycles import EfficientCycleFilter, FilterList
from repro.egraph.egraph import EGraph
from repro.egraph.extraction.bnb import solve_branch_and_bound
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.extraction.ilp import ILPExtractor
from repro.egraph.extraction.problem import build_extraction_problem, warm_start_solution
from repro.egraph.language import ENode
from repro.egraph.multipattern import MultiPatternRewrite
from repro.egraph.rewrite import Rewrite
from repro.egraph.runner import Runner, RunnerLimits
from repro.models import build_model


def cost_table(table, default=1.0):
    return lambda enode, egraph: table.get(enode.op, default)


def solve_reference(problem, **kwargs):
    """Solve an extraction problem with the pure-Python reference branch and bound."""
    return solve_branch_and_bound(
        problem.c, problem.a_ub, problem.b_ub, problem.a_eq, problem.b_eq,
        problem.lower, problem.upper, problem.integrality, **kwargs,
    )


def shared_plan_egraph():
    """E-graph where the optimal plan shares one expensive node between two outputs."""
    eg = EGraph()
    shared = eg.add_term("(shared x)")
    p0 = eg.add(ENode("p0", (shared,)))
    p1 = eg.add(ENode("p1", (shared,)))
    a0 = eg.add_term("(alt0 x)")
    a1 = eg.add_term("(alt1 x)")
    eg.union(p0, a0)
    eg.union(p1, a1)
    eg.rebuild()
    root = eg.add(ENode("noop", (eg.find(p0), eg.find(p1))))
    costs = {"shared": 10.0, "p0": 0.0, "p1": 0.0, "alt0": 7.0, "alt1": 7.0, "noop": 0.0, "x": 0.0}
    return eg, root, costs


class TestFormulation:
    def test_variable_and_constraint_counts(self):
        eg = EGraph()
        root = eg.add_term("(f (g a) b)")
        problem = build_extraction_problem(eg, root, cost_table({}))
        # 4 e-nodes, no topo variables.
        assert problem.num_variables == 4
        assert problem.a_eq.shape == (1, 4)

    def test_cycle_constraints_add_topo_variables(self):
        eg = EGraph()
        root = eg.add_term("(f (g a) b)")
        problem = build_extraction_problem(eg, root, cost_table({}), with_cycle_constraints=True)
        assert problem.num_variables == 4 + 4  # one t per e-class
        assert problem.integrality[-1] == 0  # real topo variables by default

    def test_integer_topo_variables(self):
        eg = EGraph()
        root = eg.add_term("(f a)")
        problem = build_extraction_problem(
            eg, root, cost_table({}), with_cycle_constraints=True, integer_topo=True
        )
        assert problem.integrality[-1] == 1
        assert problem.upper[-1] == pytest.approx(problem.variables.num_classes - 1)

    def test_unreachable_classes_are_pruned(self):
        eg = EGraph()
        root = eg.add_term("(f a)")
        eg.add_term("(unrelated b)")
        problem = build_extraction_problem(eg, root, cost_table({}))
        assert problem.variables.num_classes == 2  # only f and a


class TestILPExtraction:
    def test_matches_greedy_on_tree(self):
        eg = EGraph()
        root = eg.add_term("(* a 2)")
        Rewrite.parse("strength", "(* ?x 2)", "(<< ?x 1)").run(eg)
        eg.rebuild()
        nc = cost_table({"*": 5.0, "<<": 1.0}, default=0.0)
        greedy = GreedyExtractor(nc).extract(eg, root)
        ilp = ILPExtractor(nc).extract(eg, root)
        assert str(ilp.expr) == str(greedy.expr) == "(<< a 1)"

    def test_ilp_beats_greedy_with_sharing(self):
        eg, root, costs = shared_plan_egraph()
        nc = cost_table(costs)
        greedy = GreedyExtractor(nc).extract(eg, root)
        ilp = ILPExtractor(nc).extract(eg, root)
        assert greedy.cost == pytest.approx(14.0)
        assert ilp.cost == pytest.approx(10.0)
        assert ilp.cost < greedy.cost

    def test_bnb_backend_agrees_with_scipy(self):
        eg, root, costs = shared_plan_egraph()
        nc = cost_table(costs)
        scipy_res = ILPExtractor(nc).extract(eg, root)
        bnb_res = solve_reference(
            build_extraction_problem(eg, root, nc, prune_dominated=True, collapse_singletons=True)
        )
        assert bnb_res.status == "optimal"
        assert bnb_res.objective == pytest.approx(scipy_res.cost)

    def test_invalid_backend_rejected(self):
        # HiGHS is the only solver: there is no backend to pick.
        with pytest.raises(TypeError):
            ILPExtractor(cost_table({}), backend="bnb")

    def test_filter_list_constraints(self):
        eg = EGraph()
        root = eg.add_term("(* a 2)")
        Rewrite.parse("strength", "(* ?x 2)", "(<< ?x 1)").run(eg)
        eg.rebuild()
        flist = FilterList()
        a = eg.add_term("a")
        one = eg.add_term("1")
        flist.add(eg, ENode("<<", (eg.find(a), eg.find(one))))
        nc = cost_table({"*": 5.0, "<<": 1.0}, default=0.0)
        result = ILPExtractor(nc, filter_list=flist).extract(eg, root)
        assert str(result.expr) == "(* a 2)"

    def test_solve_info_recorded(self):
        eg, root, costs = shared_plan_egraph()
        extractor = ILPExtractor(cost_table(costs))
        extractor.extract(eg, root)
        info = extractor.last_solve_info
        assert info is not None
        assert info.status == "optimal"
        assert info.num_variables > 0


class TestCycleHandling:
    def build_cyclic_egraph(self):
        """Create an e-graph with an e-class-level cycle via the merge rule (paper Figure 3)."""
        eg = EGraph()
        root = eg.add_term("(matmul 0 x (matmul 0 x y))")
        rule = MultiPatternRewrite.parse(
            "merge",
            sources=["(matmul ?a ?x ?w1)", "(matmul ?a ?x ?w2)"],
            targets=[
                "(split0 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
                "(split1 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
            ],
        )
        for combo in rule.search(eg):
            rule.apply_match(eg, combo)
        eg.rebuild()
        return eg, root

    def test_ilp_with_cycle_constraints_returns_acyclic_graph(self):
        eg, root = self.build_cyclic_egraph()
        nc = cost_table({}, default=1.0)
        result = ILPExtractor(nc, with_cycle_constraints=True).extract(eg, root)
        # build_recexpr would raise on a cyclic selection, so reaching here is the point.
        assert result.expr.subterm_size() >= 3

    def test_ilp_with_integer_topo_matches_real_topo(self):
        eg, root = self.build_cyclic_egraph()
        nc = cost_table({}, default=1.0)
        real_res = ILPExtractor(nc, with_cycle_constraints=True, integer_topo=False).extract(eg, root)
        int_res = ILPExtractor(nc, with_cycle_constraints=True, integer_topo=True).extract(eg, root)
        assert real_res.cost == pytest.approx(int_res.cost)

    def test_without_cycle_constraints_on_filtered_egraph(self):
        eg = EGraph()
        root = eg.add_term("(matmul 0 x (matmul 0 x y))")
        rule = MultiPatternRewrite.parse(
            "merge",
            sources=["(matmul ?a ?x ?w1)", "(matmul ?a ?x ?w2)"],
            targets=[
                "(split0 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
                "(split1 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
            ],
        )
        cycle_filter = EfficientCycleFilter()
        Runner(
            eg,
            multi_rewrites=[rule],
            limits=RunnerLimits(iter_limit=2, k_multi=2),
            cycle_filter=cycle_filter,
        ).run()
        nc = cost_table({}, default=1.0)
        result = ILPExtractor(
            nc, with_cycle_constraints=False, filter_list=cycle_filter.filter_list
        ).extract(eg, root)
        assert result.status in ("optimal", "feasible")


class TestProblemReduction:
    def make_dominated_egraph(self):
        """One e-class with two candidates over the same child: (f a) and the
        strictly more expensive (g a) -- g is dominated."""
        eg = EGraph()
        root = eg.add_term("(f a)")
        Rewrite.parse("worse", "(f ?x)", "(g ?x)").run(eg)
        eg.rebuild()
        nc = cost_table({"f": 1.0, "g": 2.0}, default=0.0)
        return eg, root, nc

    def test_dominated_node_is_pruned(self):
        eg, root, nc = self.make_dominated_egraph()
        raw = build_extraction_problem(eg, root, nc)
        reduced = build_extraction_problem(eg, root, nc, prune_dominated=True)
        assert raw.reduction is None
        assert reduced.reduction is not None
        assert reduced.reduction.dominated_pruned >= 1
        assert reduced.num_variables < raw.num_variables
        assert reduced.reduction.variable_ratio > 1.0
        ops = {node.op for _, node in reduced.variables.nodes}
        assert "g" not in ops  # the dominated candidate is gone

    def test_equal_cost_duplicates_collapse_deterministically(self):
        eg = EGraph()
        root = eg.add_term("(f a)")
        Rewrite.parse("twin", "(f ?x)", "(g ?x)").run(eg)
        eg.rebuild()
        nc = cost_table({"f": 1.0, "g": 1.0}, default=0.0)
        reduced = build_extraction_problem(eg, root, nc, prune_dominated=True)
        # Exact tie: earlier-registered candidate wins, exactly one survives.
        class_sizes = {}
        for cls_pos, _ in reduced.variables.nodes:
            class_sizes[cls_pos] = class_sizes.get(cls_pos, 0) + 1
        assert max(class_sizes.values()) == 1

    def test_singleton_chain_is_fixed(self):
        eg = EGraph()
        root = eg.add_term("(f (g (h a)))")  # pure chain: every class a singleton
        nc = cost_table({}, default=1.0)
        problem = build_extraction_problem(
            eg, root, nc, prune_dominated=True, collapse_singletons=True
        )
        assert problem.reduction.singletons_fixed == 4
        assert (problem.lower[: problem.variables.num_nodes] == 1.0).all()

    def test_pruning_preserves_the_optimum(self):
        eg, root, costs = shared_plan_egraph()
        nc = cost_table(costs)
        pruned = ILPExtractor(nc, reduce_problem=True, warm_start=False).extract(eg, root)
        raw = ILPExtractor(nc, reduce_problem=False, warm_start=False).extract(eg, root)
        assert pruned.cost == pytest.approx(raw.cost) == pytest.approx(10.0)
        assert pruned.reduction is not None

    def test_reduction_stats_reach_solve_info(self):
        eg, root, nc = self.make_dominated_egraph()
        extractor = ILPExtractor(nc, reduce_problem=True)
        extractor.extract(eg, root)
        assert extractor.last_solve_info.prune_ratio > 1.0


class TestWarmStart:
    def test_warm_start_vector_is_feasible_and_greedy_cost(self):
        from repro.egraph.extraction.bnb import incumbent_is_feasible

        eg, root, costs = shared_plan_egraph()
        nc = cost_table(costs)
        problem = build_extraction_problem(
            eg, root, nc, prune_dominated=True, collapse_singletons=True
        )
        x0, obj = warm_start_solution(problem)
        assert incumbent_is_feasible(
            x0, problem.a_ub, problem.b_ub, problem.a_eq, problem.b_eq,
            problem.lower, problem.upper,
        )
        greedy = GreedyExtractor(nc).extract(eg, root)
        assert obj == pytest.approx(greedy.cost)

    def test_warm_and_cold_solves_agree(self):
        eg, root, costs = shared_plan_egraph()
        nc = cost_table(costs)
        warm = ILPExtractor(nc, warm_start=True).extract(eg, root)
        cold = ILPExtractor(nc, warm_start=False).extract(eg, root)
        assert warm.cost == pytest.approx(cold.cost) == pytest.approx(10.0)
        problem = build_extraction_problem(
            eg, root, nc, prune_dominated=True, collapse_singletons=True
        )
        bnb_warm = solve_reference(problem, incumbent=warm_start_solution(problem))
        bnb_cold = solve_reference(problem)
        assert bnb_warm.objective == pytest.approx(bnb_cold.objective) == pytest.approx(10.0)

    def test_warm_start_info_recorded(self):
        eg, root, costs = shared_plan_egraph()
        extractor = ILPExtractor(cost_table(costs), warm_start=True)
        extractor.extract(eg, root)
        info = extractor.last_solve_info
        assert info.warm_started
        assert info.warm_start_objective == pytest.approx(14.0)  # the greedy cost

    def test_bnb_incumbent_accepts_only_feasible_vectors(self):
        eg, root, costs = shared_plan_egraph()
        problem = build_extraction_problem(eg, root, cost_table(costs))
        bogus = np.full(problem.num_variables, 0.5)  # violates the eq row
        res = solve_reference(problem, incumbent=(bogus, 0.0))
        # The infeasible incumbent is ignored, not returned.
        assert res.status == "optimal"
        assert res.objective == pytest.approx(10.0)

    def test_stage_timings_on_result(self):
        eg, root, costs = shared_plan_egraph()
        result = ILPExtractor(cost_table(costs)).extract(eg, root)
        assert "prune" in result.stages
        assert "greedy" in result.stages
        assert "ilp" in result.stages
        assert result.cost == pytest.approx(10.0)


SESSION_BASE = dict(node_limit=2_000, iter_limit=5, k_multi=1)


def _session(model: str, observers=(), **overrides):
    config = TensatConfig(**{**SESSION_BASE, **overrides})
    return OptimizationSession(build_model(model, "tiny"), config=config, observers=list(observers))


class TestSessionExtraction:
    """The ILP as the pipeline runs it: parity, time limit, stats and events."""

    @pytest.mark.slow
    @pytest.mark.parametrize("model", ["nasrnn", "resnext"])
    def test_warm_ilp_matches_cold_ilp(self, model):
        warm = _session(model, ilp_time_limit=30.0, ilp_warm_start=True).result()
        cold = _session(model, ilp_time_limit=30.0, ilp_warm_start=False).result()
        assert warm.stats.optimized_cost == pytest.approx(cold.stats.optimized_cost)
        # Same extracted graph, not just the same headline cost.
        assert str(warm.extraction.expr) == str(cold.extraction.expr)

    @pytest.mark.parametrize("model", ["nasrnn", "bert"])
    def test_time_limit_returns_warm_incumbent(self, model):
        # The time limit is the only extraction budget: when it expires before
        # HiGHS has a solution, the greedy incumbent is the answer.
        session = _session(model, ilp_time_limit=1e-6, verify_numerically=True)
        extraction = session.extract()
        assert extraction.status == "iteration_or_time_limit_warm_incumbent"
        assert "greedy" in extraction.stages
        result = session.result()
        assert result.optimized is not None
        assert result.stats.optimized_cost > 0
        assert result.stats.extraction_status.startswith(extraction.status)
        assert result.stats.as_dict()["extraction_status"] == result.stats.extraction_status

    def test_time_limit_cold_falls_back_to_greedy(self):
        session = _session("nasrnn", ilp_time_limit=1e-6, ilp_warm_start=False)
        extraction = session.extract()
        assert extraction.status == "ilp_iteration_or_time_limit_greedy_fallback"
        assert {"prune", "ilp", "greedy"} <= set(extraction.stages)
        assert session.result().optimized is not None

    def test_stage_provenance_recorded(self):
        extraction = _session("nasrnn", ilp_time_limit=30.0).extract()
        assert set(extraction.stages) == {"prune", "greedy", "ilp"}
        assert extraction.status == "optimal"

    def test_stats_carry_stage_seconds_and_prune_ratio(self):
        stats = _session("nasrnn", ilp_time_limit=30.0).result().stats
        assert set(stats.extraction_stage_seconds) == {"prune", "greedy", "ilp"}
        assert all(secs >= 0.0 for secs in stats.extraction_stage_seconds.values())
        assert stats.extraction_prune_ratio >= 1.0
        payload = stats.as_dict()
        assert "extraction_stage_seconds" in payload
        assert "extraction_prune_ratio" in payload

    def test_on_extraction_event_fires_with_the_result(self):
        recording = RecordingObserver()
        session = _session("nasrnn", observers=[recording], ilp_time_limit=30.0)
        extraction = session.extract()
        events = recording.of_kind("extraction")
        assert len(events) == 1
        assert events[0][1] is extraction
        stats = session.result().stats
        assert stats.extraction_stage_seconds == extraction.stages
        assert stats.extraction_prune_ratio >= 1.0
