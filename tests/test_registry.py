"""Strategy-table tests: each strategy name lives in one plain table.

``EXTRACTORS``, ``SCHEDULERS`` and ``CYCLE_FILTERS`` sit beside the classes
they name; config validation and the CLI's ``choices=`` both read them.
"""

from __future__ import annotations

import pytest

from repro import TensatConfig
from repro.cli import build_parser
from repro.egraph.cycles import CYCLE_FILTERS
from repro.egraph.extraction import EXTRACTORS
from repro.egraph.scheduler import SCHEDULERS


class TestBuiltinEntries:
    def test_builtin_names(self):
        assert tuple(SCHEDULERS) == ("simple", "backoff")
        assert tuple(EXTRACTORS) == ("ilp", "greedy")
        assert tuple(CYCLE_FILTERS) == ("efficient", "vanilla", "none")

    def test_config_validation_error_lists_choices(self):
        with pytest.raises(ValueError, match="available: simple, backoff"):
            TensatConfig(scheduler="adaptive")
        with pytest.raises(ValueError, match="available: ilp, greedy"):
            TensatConfig(extraction="random")
        with pytest.raises(ValueError, match="available: efficient, vanilla, none"):
            TensatConfig(cycle_filter="sometimes")

    def test_cli_choices_derive_from_registries(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if hasattr(a, "choices") and "optimize" in (a.choices or {})
        )
        actions = {a.dest: a for a in subparsers.choices["optimize"]._actions}
        assert tuple(actions["scheduler"].choices) == tuple(SCHEDULERS)
        assert tuple(actions["extraction"].choices) == tuple(EXTRACTORS)
        assert tuple(actions["cycle_filter"].choices) == tuple(CYCLE_FILTERS)
