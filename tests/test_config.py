"""Tests for TensatConfig and OptimizationStats."""

from dataclasses import fields

import pytest

from repro.core import OptimizationStats, TensatConfig
from repro.egraph.runner import RunnerLimits

#: Search and extraction knobs retired in favour of one search path and one
#: extraction path.
REMOVED_KNOBS = {
    "matcher": "naive",
    "search_mode": "per-rule",
    "multipattern_join": "product",
    "condition_cache": "memo",
    "shape_analysis": "off",
    "search_jobs": 2,
    "search_executor": "thread",
    "extraction_deadline": 5.0,
    "ilp_backend": "bnb",
    "ilp_fallback_to_greedy": False,
    "ilp_integer_topo": True,
}

#: Time limits that would silently mean "no limit".
BAD_TIME_LIMITS = [0.0, -1.0, float("nan"), float("inf")]

#: The key set of ``OptimizationStats.as_dict()``: the CLI's ``--json`` payload
#: and the service's ``stats`` object.
STATS_KEYS = {
    "exploration_seconds",
    "search_seconds",
    "apply_seconds",
    "rebuild_seconds",
    "cycle_prefilter_seconds",
    "multi_join_seconds",
    "condition_seconds",
    "extraction_seconds",
    "total_seconds",
    "iterations",
    "stop_reason",
    "enodes",
    "eclasses",
    "filtered_nodes",
    "cycles_resolved",
    "original_cost_ms",
    "optimized_cost_ms",
    "speedup_percent",
    "extraction_status",
    "extraction_stage_seconds",
    "extraction_prune_ratio",
    "ilp_num_variables",
    "ilp_num_constraints",
}


class TestTensatConfig:
    def test_paper_defaults(self):
        cfg = TensatConfig.paper_defaults()
        assert cfg.node_limit == 50_000
        assert cfg.iter_limit == 15
        assert cfg.k_multi == 1
        assert cfg.extraction == "ilp"
        assert cfg.cycle_filter == "efficient"
        assert not cfg.ilp_cycle_constraints

    def test_fast_preset_is_smaller(self):
        fast = TensatConfig.fast()
        assert fast.node_limit < TensatConfig().node_limit

    def test_with_overrides(self):
        cfg = TensatConfig().with_overrides(k_multi=3, extraction="greedy")
        assert cfg.k_multi == 3
        assert cfg.extraction == "greedy"
        # original untouched (frozen dataclass)
        assert TensatConfig().k_multi == 1

    def test_invalid_extraction_rejected(self):
        with pytest.raises(ValueError):
            TensatConfig(extraction="magic")

    def test_invalid_cycle_filter_rejected(self):
        with pytest.raises(ValueError):
            TensatConfig(cycle_filter="sometimes")

    def test_invalid_engine_knobs_rejected(self):
        with pytest.raises(ValueError):
            TensatConfig(scheduler="adaptive")

    @pytest.mark.parametrize("knob", sorted(REMOVED_KNOBS))
    def test_removed_search_knobs_are_not_fields(self, knob):
        with pytest.raises(TypeError):
            TensatConfig(**{knob: REMOVED_KNOBS[knob]})
        assert knob not in {f.name for f in fields(RunnerLimits)}

    def test_condition_cache_is_not_a_config_field(self):
        # Condition verdicts are always evaluated; there is no cache kind to pick.
        with pytest.raises(TypeError):
            TensatConfig(condition_cache="lru")

    def test_condition_cache_is_not_a_runner_limits_field(self):
        with pytest.raises(TypeError):
            RunnerLimits(condition_cache="bogus")

    def test_engine_defaults(self):
        cfg = TensatConfig()
        assert cfg.scheduler == "simple"
        assert cfg.delta_matching
        assert len(fields(TensatConfig)) == 18

    def test_nonpositive_limits_rejected(self):
        with pytest.raises(ValueError):
            TensatConfig(node_limit=0)
        with pytest.raises(ValueError):
            TensatConfig(iter_limit=0)
        with pytest.raises(ValueError):
            TensatConfig(k_multi=-1)

    @pytest.mark.parametrize(
        "knob, limit",
        [pytest.param("ilp_time_limit", v, id=str(v)) for v in BAD_TIME_LIMITS]
        + [pytest.param("exploration_time_limit", v, id=f"exploration-{v}") for v in BAD_TIME_LIMITS],
    )
    def test_invalid_ilp_time_limit_rejected(self, knob, limit):
        # HiGHS would otherwise solve with no time limit at all, and the
        # runner's ``elapsed > nan`` check never fires.
        with pytest.raises(ValueError, match=knob):
            TensatConfig(**{knob: limit})

    @pytest.mark.parametrize("cap", ["abc", 2.5, -1, True])
    def test_invalid_max_multi_combinations_rejected(self, cap):
        with pytest.raises(ValueError, match="max_multi_combinations"):
            TensatConfig(max_multi_combinations=cap)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("node_limit", 2.5),
            ("node_limit", True),
            ("node_limit", float("inf")),
            ("node_limit", "5"),
            ("iter_limit", "5"),
            ("iter_limit", 5.0),
            ("k_multi", 1.5),
            ("k_multi", False),
            ("scheduler_match_limit", -1),
            ("scheduler_match_limit", 10.5),
            ("scheduler_ban_length", -1),
            ("ilp_mip_gap", -0.1),
            ("ilp_mip_gap", float("nan")),
            ("ilp_mip_gap", float("inf")),
            ("ilp_mip_gap", "0.1"),
            ("ilp_time_limit", "5"),
        ],
    )
    def test_invalid_counts_and_gap_rejected(self, knob, value):
        # Each of these used to run silently or fail with a bare TypeError.
        with pytest.raises(ValueError, match=knob):
            TensatConfig(**{knob: value})

    @pytest.mark.parametrize(
        "knob, value",
        [("k_multi", 0), ("scheduler_match_limit", 0), ("scheduler_ban_length", 0), ("ilp_mip_gap", 0), ("ilp_mip_gap", 0.05)],
    )
    def test_boundary_counts_and_gap_accepted(self, knob, value):
        assert getattr(TensatConfig(**{knob: value}), knob) == value

    @pytest.mark.parametrize("cap", [None, 0, 50])
    def test_valid_max_multi_combinations_accepted(self, cap):
        assert TensatConfig(max_multi_combinations=cap).max_multi_combinations == cap

    def test_no_cycle_handling_at_all_is_rejected(self):
        # cycle_filter="none" + ILP without cycle constraints could extract a cyclic graph.
        with pytest.raises(ValueError):
            TensatConfig(cycle_filter="none", extraction="ilp", ilp_cycle_constraints=False)

    def test_none_filter_with_cycle_constraints_is_allowed(self):
        cfg = TensatConfig(cycle_filter="none", ilp_cycle_constraints=True)
        assert cfg.cycle_filter == "none"


class TestOptimizationStats:
    def test_speedup_percent(self):
        stats = OptimizationStats(original_cost=2.0, optimized_cost=1.0)
        assert stats.speedup_percent == pytest.approx(100.0)

    def test_speedup_zero_when_no_cost(self):
        assert OptimizationStats().speedup_percent == 0.0

    def test_as_dict_keys(self):
        stats = OptimizationStats(original_cost=2.0, optimized_cost=1.0, stop_reason="saturated")
        d = stats.as_dict()
        assert set(d) == STATS_KEYS
        assert d["stop_reason"] == "saturated"
        assert d["speedup_percent"] == pytest.approx(100.0)

    def test_as_dict_phase_breakdown(self):
        stats = OptimizationStats(
            exploration_seconds=1.0,
            search_seconds=0.5,
            apply_seconds=0.3,
            rebuild_seconds=0.1,
        )
        d = stats.as_dict()
        assert d["search_seconds"] == pytest.approx(0.5)
        assert d["apply_seconds"] == pytest.approx(0.3)
        assert d["rebuild_seconds"] == pytest.approx(0.1)
