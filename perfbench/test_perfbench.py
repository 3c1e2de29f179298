"""The benchmark's own tests.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the package under test on sys.path)
import workloads  # noqa: E402
from measure import Tally, speedup_geomean_pct, tail  # noqa: E402
from spans import OP, Span, Tracer, coverage, self_times  # noqa: E402
from repro.models import build_model  # noqa: E402
from repro.service import ServiceError  # noqa: E402


# -- tail percentile -------------------------------------------------- #


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]  # 1 .. 100
    value, percentile, beyond = tail(samples[::-1])
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    assert sum(s > value for s in samples) == 10


def test_tail_with_few_samples_is_the_maximum_with_none_beyond():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    # 19 samples: a tail with ten beyond it would sit below the median.
    assert tail([float(i) for i in range(19)]) == (18.0, 100.0, 0)
    value, percentile, beyond = tail([float(i) for i in range(20)])
    assert (value, percentile, beyond) == (9.0, 50.0, 10)
    with pytest.raises(ValueError):
        tail([])


# -- geometric mean ---------------------------------------------------- #


def test_speedup_geomean():
    assert speedup_geomean_pct([(2.0, 1.0), (8.0, 1.0)]) == pytest.approx(300.0)
    assert speedup_geomean_pct([(1.0, 1.0), (3.0, 3.0)]) == pytest.approx(0.0)
    assert speedup_geomean_pct([(1.0, 2.0), (2.0, 1.0)]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        speedup_geomean_pct([])


# -- failed_ratio ------------------------------------------------------ #


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    for error in ("", "boom", "", ""):
        tally.record(error)
    assert (tally.attempted, tally.failed, tally.failed_ratio) == (4, 1, 0.25)
    assert tally.reasons == ["boom"]


def test_a_raising_operation_counts_as_failed(monkeypatch):
    class Exploding:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("exploration blew up")

    monkeypatch.setattr(workloads, "OptimizationSession", Exploding)
    workload = workloads.ZooSmall(smoke=True)
    graph = build_model("vgg", "tiny")
    op = workload.operation("vgg-tiny", graph, workloads.TensatConfig(**workloads.HARNESS_CAPS), None, 0)
    assert "exploration blew up" in op.error
    assert op.seconds > 0.0
    assert run.tally_of([op, workloads.OpResult(0.1)]).failed_ratio == 0.5


class RefusingClient:
    """Answers every request with a typed refusal, or fails the transport."""

    def __init__(self, transport_error: bool) -> None:
        self.transport_error = transport_error

    def optimize(self, graph_doc, config, check):
        if self.transport_error:
            raise ServiceError("connection", "cannot reach the daemon")
        return {"ok": False, "op": "optimize", "error": {"type": "queue_full", "message": "at capacity"}}


@pytest.mark.parametrize("transport_error", [False, True])
def test_a_refused_request_counts_as_failed(transport_error):
    workload = workloads.ServiceMix(smoke=True)
    workload.seed = 0
    workload.inputs = [workloads.service_input("vgg-tiny", build_model("vgg", "tiny"))]
    workload.client = RefusingClient(transport_error)
    results, misses = workload._client_loop(time.perf_counter() + 0.05, None)
    assert results and not misses
    tally = run.tally_of(results)
    assert tally.failed == tally.attempted == len(results)
    assert tally.failed_ratio == 1.0


def test_renamed_requests_are_isomorphic_not_identical():
    graph = build_model("nasrnn", "tiny")
    item = workloads.service_input("nasrnn-tiny", graph)
    a, b = item.renamed("a_"), item.renamed("b_")
    assert a != b
    fingerprints = {
        workloads.graph_fingerprint(workloads.graph_from_doc(doc)) for doc in (a, b, item.doc)
    }
    assert len(fingerprints) == 1
    assert item.doc == workloads.graph_to_doc(graph)  # the base document is untouched


# -- spans ------------------------------------------------------------- #


def hand_built_tree():
    # op [0, 10] holds a [1, 4] (a container, holding g [2, 3]),
    # b [3, 6] overlapping a, and c [8, 12] running past the op's end.
    return [
        Span(OP, 0.0, 10.0, container=True),
        Span("a", 1.0, 4.0, parent=0, container=True),
        Span("b", 3.0, 6.0, parent=0),
        Span("c", 8.0, 12.0, parent=0),
        Span("g", 2.0, 3.0, parent=1),
    ]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    assert self_times(hand_built_tree()) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_coverage_counts_container_self_time_as_unattributed():
    # Unattributed: the op's own 3 s plus container a's 2 s, of 10 s.
    assert coverage(hand_built_tree()) == pytest.approx(0.5)
    # Spans outside any operation (set-up) do not enter the ratio.
    assert coverage(hand_built_tree() + [Span("ir.build", 20.0, 30.0)]) == pytest.approx(0.5)


def test_tracer_nests_spans_and_lays_reported_parts_end_to_end():
    tracer = Tracer()
    with tracer.span(OP, op=7, container=True) as op_span:
        with tracer.span("explore.step", container=True) as step:
            time.sleep(0.01)
        tracer.add_parts(step, {"explore.search": 0.004, "explore.apply": 0.003, "explore.rebuild": 1.0})
    names = [span.name for span in tracer.spans]
    assert names == [OP, "explore.step", "explore.search", "explore.apply", "explore.rebuild"]
    assert all(span.op == 7 for span in tracer.spans)
    assert tracer.spans[1].parent == op_span.index
    search, apply_, rebuild = tracer.spans[2:]
    assert search.start == step.start and apply_.start == search.end
    assert rebuild.end == step.end  # clipped to the parent
    events = tracer.chrome_trace()["traceEvents"]
    assert len(events) == 5 and all(e["ph"] == "X" for e in events)


# -- inputs from the seed ----------------------------------------------- #


def test_seed_fixes_the_zoo_order():
    def orders(seed):
        workload = workloads.ZooSmall(smoke=True)
        workload.setup(seed)
        return [[label for label, _, _ in workload.pass_order()] for _ in range(3)]

    assert orders(5) == orders(5)
    assert orders(5) != orders(6)


# -- smoke runs of every workload --------------------------------------- #


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run(workload, trace):
    out = io.StringIO()
    correct, line = run.run_benchmark(workload, seed=3, seconds=0.3, trace=trace, smoke=True, out=out)
    assert correct, out.getvalue()
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(line["metrics"]) == set(expected)
    assert json.loads(out.getvalue().strip().splitlines()[-1]) == line


def test_benchmark_json_matches_the_runner():
    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.exists():
        pytest.skip("BENCHMARK.json is not beside the benchmark")
    spec = json.loads(spec_path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "traces"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zoo-small", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
