"""Tests that key rules fire on e-graphs and enable the expected optimizations."""

import pytest

from repro.backend import execute_graph, outputs_allclose
from repro.costs import AnalyticCostModel
from repro.egraph.extraction.ilp import ILPExtractor
from repro.egraph.cycles import EfficientCycleFilter
from repro.egraph.runner import Runner, RunnerLimits
from repro.ir.convert import egraph_from_graph, recexpr_to_graph
from repro.ir.graph import GraphBuilder
from repro.ir.ops import Activation
from repro.rules import default_ruleset


def optimize_with_rules(graph, rules, k_multi=1, node_limit=4000, iter_limit=6):
    cm = AnalyticCostModel()
    eg, root = egraph_from_graph(graph)
    cycle_filter = EfficientCycleFilter()
    Runner(
        eg,
        rewrites=rules.rewrites,
        multi_rewrites=rules.multi_rewrites,
        limits=RunnerLimits(node_limit=node_limit, iter_limit=iter_limit, k_multi=k_multi),
        cycle_filter=cycle_filter,
    ).run()
    result = ILPExtractor(
        cm.extraction_cost_function(), filter_list=cycle_filter.filter_list, time_limit=60
    ).extract(eg, root)
    optimized = recexpr_to_graph(result.expr, name=graph.name + "-opt")
    return optimized, cm


class TestMatmulMerge:
    def test_shared_lhs_matmuls_get_merged(self):
        b = GraphBuilder("pair")
        x = b.input("x", (8, 64))
        w1 = b.weight("w1", (64, 128))
        w2 = b.weight("w2", (64, 96))
        g = b.finish(outputs=[b.matmul(x, w1), b.matmul(x, w2)])

        rules = default_ruleset()
        optimized, cm = optimize_with_rules(g, rules)
        assert cm.graph_cost(optimized) < cm.graph_cost(g)
        # Exactly one matmul remains, fed by a concat of the weights.
        assert optimized.op_histogram().get("matmul") == 1
        assert outputs_allclose(execute_graph(g), execute_graph(optimized))

    def test_fig11_add_of_matmuls(self):
        b = GraphBuilder("fig11")
        x = b.input("x", (4, 32))
        y = b.input("y", (4, 48))
        w1 = b.weight("w1", (32, 64))
        w2 = b.weight("w2", (48, 64))
        g = b.finish(outputs=[b.ewadd(b.matmul(x, w1), b.matmul(y, w2))])

        optimized, cm = optimize_with_rules(g, default_ruleset())
        assert cm.graph_cost(optimized) < cm.graph_cost(g)
        hist = optimized.op_histogram()
        assert hist.get("matmul") == 1
        assert "ewadd" not in hist
        assert outputs_allclose(execute_graph(g), execute_graph(optimized))


class TestConvMerge:
    def test_shared_input_convs_get_merged(self):
        b = GraphBuilder("convpair")
        x = b.input("x", (1, 16, 14, 14))
        w1 = b.weight("w1", (32, 16, 3, 3))
        w2 = b.weight("w2", (48, 16, 3, 3))
        c1 = b.conv(x, w1, activation=Activation.RELU)
        c2 = b.conv(x, w2, activation=Activation.RELU)
        g = b.finish(outputs=[c1, c2])

        optimized, cm = optimize_with_rules(g, default_ruleset())
        assert cm.graph_cost(optimized) < cm.graph_cost(g)
        assert optimized.op_histogram().get("conv") == 1
        assert outputs_allclose(execute_graph(g), execute_graph(optimized))

    def test_enlarge_merge_for_mixed_kernel_sizes(self):
        b = GraphBuilder("fire")
        x = b.input("x", (1, 8, 10, 10))
        w1 = b.weight("w1", (16, 8, 1, 1))
        w3 = b.weight("w3", (16, 8, 3, 3))
        e1 = b.conv(x, w1, activation=Activation.RELU)
        e3 = b.conv(x, w3, activation=Activation.RELU)
        g = b.finish(outputs=[b.concat(1, e1, e3)])

        optimized, cm = optimize_with_rules(g, default_ruleset())
        assert cm.graph_cost(optimized) < cm.graph_cost(g)
        assert optimized.op_histogram().get("conv") == 1
        assert outputs_allclose(execute_graph(g), execute_graph(optimized))


class TestFusion:
    def test_relu_fuses_into_matmul(self):
        b = GraphBuilder("fuse")
        x = b.input("x", (16, 64))
        w = b.weight("w", (64, 64))
        g = b.finish(outputs=[b.relu(b.matmul(x, w))])

        optimized, cm = optimize_with_rules(g, default_ruleset(include_multi=False))
        hist = optimized.op_histogram()
        assert "relu" not in hist
        assert cm.graph_cost(optimized) < cm.graph_cost(g)
        assert outputs_allclose(execute_graph(g), execute_graph(optimized))


class TestNegativeControl:
    def test_single_matmul_is_left_alone(self):
        b = GraphBuilder("lone")
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        g = b.finish(outputs=[b.matmul(x, w)])
        optimized, cm = optimize_with_rules(g, default_ruleset())
        assert cm.graph_cost(optimized) == pytest.approx(cm.graph_cost(g))
