"""The benchmark's workloads, each driving the program through its public API.

An *operation* is one graph in, one validated optimized graph out; on
``service-mix`` it is one request round trip.  Every workload runs a closed
loop: a caller sends its next operation only after the previous one returned.

Untraced operations time exactly the call a user makes.  Traced operations
(``--trace 1``) call the same layers one at a time, each inside a span, and
read the layers' own counts from what those calls return.  After every
operation, outside its timing, the output is checked against the numpy
reference executor and the workload's invariant.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import OptimizationSession, TensatConfig, import_onnx
from repro.backend.executor import execute_graph, outputs_allclose
from repro.core.batch import compile_shared_trie
from repro.ir.graph import TensorGraph
from repro.ir.serialize import graph_from_doc, graph_to_doc
from repro.ir.validate import check_same_interface, validate_graph
from repro.models import build_model
from repro.rules.library import default_ruleset
from repro.service import ServiceClient, ServiceConfig, ServiceError, graph_fingerprint
from repro.service.server import ServerThread

from measure import current_rss_mb, mean, median
from spans import OP, Tracer

ONNX_DIR = Path(__file__).resolve().parent / "onnx"
ONNX_MODELS = ("convnet_tiny", "mlp_tiny")

#: The built-ins that saturate at ``small`` and prove ILP optimality there.
ZOO_MODELS = ("nasrnn", "resnext", "nasnet", "squeezenet", "vgg", "inception", "resnet")

#: The benchmark harness caps (``benchmarks/common.py::tensat_config``).
HARNESS_CAPS: Dict[str, object] = dict(
    node_limit=4_000,
    iter_limit=8,
    k_multi=1,
    ilp_time_limit=30.0,
    ilp_mip_gap=0.01,
    exploration_time_limit=300.0,
)

#: Repeat requests (cache hits) per ``service-mix`` round, beside one miss
#: per graph: 3 of 10 requests hit, so the median request is a miss.  A hit
#: costs 1 to 3 ms, mostly thread wake-ups, and on a shared virtual machine
#: its latency swung threefold between runs minutes apart; misses of the
#: ``small`` models (25 to 450 ms of computation) repeated within a few percent.
ROUND_HITS = 3

#: ``extract-bert``'s ILP budget in seconds: long enough that the incumbent
#: it reaches repeats from run to run, too short to prove optimality.
BERT_ILP_BUDGET = 10.0

#: ``explore-15k``'s e-node cap; every other limit is the paper's default.
EXPLORE_NODE_LIMIT = 15_000

#: Relative and absolute tolerance of the numerical equivalence check.
RTOL, ATOL = 1e-4, 1e-5


@dataclass
class OpResult:
    """One operation: its wall time, its output's quality and any failure."""

    seconds: float
    traced: bool = False
    original_cost: float = 0.0
    optimized_cost: float = 0.0
    proved: bool = False
    error: str = ""
    #: Per-layer numbers (traced operations only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: ``"hit"`` / ``"miss"`` on service-mix.
    tier: str = ""
    #: The input it ran on.
    label: str = ""


def check_output(original: TensorGraph, optimized: TensorGraph, op: "OpResult", reference=None) -> None:
    """Raise ``ValueError`` unless ``optimized`` is a valid, equivalent and no
    costlier rewrite of ``original`` (``reference``: its cached execution)."""
    validate_graph(optimized)
    check_same_interface(original, optimized)
    if reference is None:
        reference = execute_graph(original)
    if not outputs_allclose(reference, execute_graph(optimized), rtol=RTOL, atol=ATOL):
        raise ValueError(f"{original.name}: optimized outputs differ from the original's")
    if not 0.0 < op.optimized_cost <= op.original_cost + 1e-9:
        raise ValueError(f"cost {op.optimized_cost} is not in (0, original {op.original_cost}]")


def best_of(function, argument, repeats: int = 5) -> float:
    """Shortest of ``repeats`` timings of ``function(argument)``."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function(argument)
        timings.append(time.perf_counter() - start)
    return min(timings)


def timed_build(tracer: Optional[Tracer], span_name: str, build, *args, **kwargs):
    """Build one input, inside a span when tracing."""
    if tracer is None:
        return build(*args, **kwargs)
    with tracer.span(span_name):
        return build(*args, **kwargs)


class Workload:
    """Base class: ``setup`` builds the inputs, ``run`` is the timed loop."""

    name = ""

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        self.verify_seconds = 0.0
        #: Run-level invariant violations (per-operation ones fail the operation).
        self.violations: List[str] = []

    def setup(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer: Optional[Tracer]) -> List[OpResult]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def timed_seconds(self, results: Sequence[OpResult]) -> float:
        """Timed wall time of the loop: one caller's operations back to back."""
        return sum(op.seconds for op in results)

    def layer_metrics(self, results: Sequence[OpResult]) -> Dict[str, float]:
        """Run-level layer numbers beyond the per-operation ones (service counters)."""
        return {}


# --------------------------------------------------------------------- #
# Session workloads: zoo-small, explore-15k, extract-bert
# --------------------------------------------------------------------- #


class SessionWorkload(Workload):
    """One-shot ``OptimizationSession(graph, config).result()`` per operation."""

    def __init__(self, smoke: bool = False) -> None:
        super().__init__(smoke)
        #: ``(label, graph, config)`` for every input.
        self.inputs: List[Tuple[str, TensorGraph, TensatConfig]] = []
        self._references: Dict[str, object] = {}

    def pass_order(self) -> List[Tuple[str, TensorGraph, TensatConfig]]:
        """The inputs of one pass of the loop, in the order they run."""
        return list(self.inputs)

    def invariant(self, result) -> str:
        """Why ``result`` no longer exercises what the workload was chosen for ('' if it does)."""
        return ""

    def run(self, seconds: float, tracer: Optional[Tracer]) -> List[OpResult]:
        results: List[OpResult] = []
        timed = 0.0
        # Whole passes only, so every run weighs each input alike.  A traced
        # run times every input twice, untraced then traced, to measure the
        # tracing overhead on matched pairs.
        while not results or timed < seconds:
            for label, graph, config in self.pass_order():
                for traced_tracer in ((None, tracer) if tracer is not None else (None,)):
                    # Collect the previous operation's garbage outside the
                    # timing, so no operation pays for another's.
                    gc.collect()
                    op = self.operation(label, graph, config, traced_tracer, len(results))
                    results.append(op)
                    timed += op.seconds
        return results

    def operation(self, label, graph, config, tracer: Optional[Tracer], op_id: int) -> OpResult:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = OptimizationSession(graph, config=config).result()
                op = OpResult(time.perf_counter() - start)
            else:
                result, op = traced_session(graph, config, tracer, op_id)
        except Exception as exc:  # any failure of the program counts against it
            return OpResult(
                time.perf_counter() - start,
                tracer is not None,
                error=f"{label}: {type(exc).__name__}: {exc}",
                label=label,
            )
        op.label = label
        op.original_cost = result.original_cost
        op.optimized_cost = result.optimized_cost
        op.proved = result.stats.extraction_status == "optimal"
        start = time.perf_counter()
        try:
            if label not in self._references:
                self._references[label] = execute_graph(graph)
            check_output(graph, result.optimized, op, self._references[label])
            broken = self.invariant(result)
            if broken:
                raise ValueError(f"workload invariant: {broken}")
        except Exception as exc:  # a failed check, or the reference executor rejecting the output
            op.error = f"{label}: {type(exc).__name__}: {exc}"
        finally:
            self.verify_seconds += time.perf_counter() - start
        return op


def traced_session(graph: TensorGraph, config: TensatConfig, tracer: Tracer, op_id: int):
    """The one-shot session, layer by layer, each layer inside a span."""
    with tracer.span(OP, op=op_id, container=True) as op_span:
        with tracer.span("session.rules") as rules_span:
            rules = default_ruleset()
        with tracer.span("trie.compile") as trie_span:
            trie = compile_shared_trie(rules, config)
        with tracer.span("session.init") as init_span:
            session = OptimizationSession(graph, rules=rules, config=config, shared_trie=trie)
        rss = 0.0
        explore_s = 0.0
        while True:
            with tracer.span("explore.step", container=True) as step:
                iteration = session.step()
            explore_s += step.duration
            if iteration is None:
                break
            tracer.add_parts(step, {
                "explore.search": iteration.search_seconds,
                "explore.apply": iteration.apply_seconds,
                "explore.rebuild": iteration.rebuild_seconds,
            })
            rss = max(rss, current_rss_mb())
            step.args.update(
                iteration=iteration.index,
                matches=iteration.n_matches,
                applied=iteration.n_applied,
                enodes=iteration.n_enodes,
                unattributed_s=step.duration
                - iteration.search_seconds - iteration.apply_seconds - iteration.rebuild_seconds,
            )
        with tracer.span("extract", container=True) as extract_span:
            extraction = session.extract()
        tracer.add_parts(extract_span, {f"extract.{k}": v for k, v in extraction.stages.items()})
        with tracer.span("materialize") as materialize_span:
            session.materialize()
        with tracer.span("result") as result_span:
            result = session.result()

    reports = session.iteration_reports
    stats = result.stats
    stages = extraction.stages
    layers = {
        "session.init_s": rules_span.duration + init_span.duration,
        "trie.compile_s": trie_span.duration,
        "explore.s": explore_s,
        "explore.iterations": len(reports),
        "explore.search_s": sum(r.search_seconds for r in reports),
        "explore.apply_s": sum(r.apply_seconds for r in reports),
        "explore.rebuild_s": sum(r.rebuild_seconds for r in reports),
        "explore.condition_s": sum(r.condition_seconds for r in reports),
        "explore.multi_join_s": sum(r.multi_join_seconds for r in reports),
        "explore.matches": sum(r.n_matches for r in reports),
        "explore.applied": sum(r.n_applied for r in reports),
        "explore.enodes": stats.num_enodes,
        "explore.eclasses": stats.num_eclasses,
        "explore.rss_mb": rss,
        "extract.s": extract_span.duration,
        "extract.prune_s": stages.get("prune", 0.0),
        "extract.greedy_s": stages.get("greedy", 0.0),
        "extract.bnb_s": stages.get("bnb", 0.0),
        "extract.ilp_s": stages.get("ilp", 0.0),
        "extract.ilp_vars": stats.ilp_num_variables or 0,
        "extract.ilp_constraints": stats.ilp_num_constraints or 0,
        "extract.prune_ratio": stats.extraction_prune_ratio or 0.0,
        "materialize.s": materialize_span.duration,
        "result.s": result_span.duration,
    }
    layers["explore.unattributed_s"] = (
        layers["explore.s"] - layers["explore.search_s"] - layers["explore.apply_s"] - layers["explore.rebuild_s"]
    )
    return result, OpResult(op_span.duration, traced=True, layers=layers)


class ZooSmall(SessionWorkload):
    """The built-ins that saturate at ``small`` plus the two checked-in ONNX models."""

    name = "zoo-small"

    def setup(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        self.rng = random.Random(seed)
        scale = "tiny" if self.smoke else "small"
        config = TensatConfig(**HARNESS_CAPS)
        for model in ZOO_MODELS:
            graph = timed_build(tracer, "ir.build", build_model, model, scale)
            self.inputs.append((f"{model}-{scale}", graph, config))
        for model in ONNX_MODELS:
            graph = timed_build(tracer, "ir.onnx_import", import_onnx, ONNX_DIR / f"{model}.onnx")
            self.inputs.append((model, graph, config))

    def pass_order(self):
        return self.rng.sample(self.inputs, len(self.inputs))

    def invariant(self, result) -> str:
        stats = result.stats
        if stats.stop_reason != "saturated" or stats.extraction_status != "optimal":
            return f"expected saturated/optimal, got {stats.stop_reason}/{stats.extraction_status}"
        return ""


class Explore15k(SessionWorkload):
    """``nasnet`` at ``full`` under the paper's limits with a 15k e-node cap, greedy extraction."""

    name = "explore-15k"

    def setup(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        scale, node_limit = ("small", 200) if self.smoke else ("full", EXPLORE_NODE_LIMIT)
        graph = timed_build(tracer, "ir.build", build_model, "nasnet", scale)
        config = TensatConfig(node_limit=node_limit, k_multi=1, extraction="greedy")
        self.inputs.append((f"nasnet-{scale}", graph, config))

    def invariant(self, result) -> str:
        if result.stats.stop_reason != "node_limit":
            return f"expected to stop on node_limit, got {result.stats.stop_reason}"
        return ""


class ExtractBert(SessionWorkload):
    """``bert`` at ``small`` under the harness caps, ILP extraction under a fixed budget."""

    name = "extract-bert"

    def setup(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        scale, self.budget = ("tiny", 0.05) if self.smoke else ("small", BERT_ILP_BUDGET)
        graph = timed_build(tracer, "ir.build", build_model, "bert", scale)
        config = TensatConfig(**dict(HARNESS_CAPS, ilp_time_limit=self.budget))
        self.inputs.append((f"bert-{scale}", graph, config))

    def invariant(self, result) -> str:
        status = result.stats.extraction_status
        ilp_seconds = result.stats.extraction_stage_seconds.get("ilp", 0.0)
        if status == "optimal" or ilp_seconds < 0.9 * self.budget:
            return (
                f"expected the {self.budget}s ILP budget spent without proof, "
                f"got {status} after {ilp_seconds:.2f}s"
            )
        return ""


# --------------------------------------------------------------------- #
# service-mix
# --------------------------------------------------------------------- #


@dataclass
class ServiceInput:
    label: str
    graph: TensorGraph
    doc: Dict[str, object]
    #: Positions of the identifier strings of input / weight leaves in ``doc``.
    leaf_names: List[int]

    def renamed(self, prefix: str) -> Dict[str, object]:
        """The document with every leaf renamed: isomorphic, not identical."""
        nodes = list(self.doc["nodes"])
        for i in self.leaf_names:
            nodes[i] = dict(nodes[i], value=prefix + nodes[i]["value"])
        return dict(self.doc, nodes=nodes)


def service_input(label: str, graph: TensorGraph) -> ServiceInput:
    doc = graph_to_doc(graph)
    nodes = doc["nodes"]
    leaf_names = sorted(
        {n["inputs"][0] for n in nodes if n["op"] in ("input", "weight")}
    )
    return ServiceInput(label, graph, doc, leaf_names)


class ServiceMix(Workload):
    """An in-process daemon and one closed-loop client over a seeded stream.

    The inputs are the ``zoo-small`` built-ins, sent with renamed leaves.
    The client sends its requests in rounds: a round is a seeded shuffle of
    every graph once plus :data:`ROUND_HITS` repeats, under a
    configuration of that round alone.  So the first request of a graph in a
    round is a cache miss and a repeat a hit, whatever the timing: the seed's
    plan fixes the hit share exactly.

    One client, not two: with two client threads in this process, handing
    the interpreter lock between them, the daemon's event loop and its
    workers made the median latency of a run vary by almost half from run to
    run.
    """

    name = "service-mix"

    def __init__(self, smoke: bool = False) -> None:
        super().__init__(smoke)
        self.inputs: List[ServiceInput] = []
        self.server: Optional[ServerThread] = None
        self.status: Dict[str, object] = {}
        self.wall_seconds = 0.0

    def setup(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        scale = "tiny" if self.smoke else "small"
        self.inputs = [
            service_input(f"{model}-{scale}", timed_build(tracer, "ir.build", build_model, model, scale))
            for model in ZOO_MODELS
        ]
        if len({graph_fingerprint(item.graph) for item in self.inputs}) != len(self.inputs):
            raise ValueError("two service-mix inputs share a fingerprint, so the hit plan would not hold")
        self.server = ServerThread(service_config=ServiceConfig(port=0)).start()
        self.client = ServiceClient(port=self.server.port, timeout=120.0)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def timed_seconds(self, results: Sequence[OpResult]) -> float:
        return self.wall_seconds

    def run(self, seconds: float, tracer: Optional[Tracer]) -> List[OpResult]:
        start = time.perf_counter()
        results, misses = self._client_loop(start + seconds, tracer)
        self.wall_seconds = time.perf_counter() - start
        self.status = self.client.status()

        verify_start = time.perf_counter()
        for item, doc, graph_doc, op in misses:
            try:
                check_output(graph_from_doc(doc), graph_from_doc(graph_doc), op)
            except Exception as exc:  # a failed check, or a document that does not decode
                op.error = f"{item.label}: {type(exc).__name__}: {exc}"
        self.verify_seconds += time.perf_counter() - verify_start

        planned_hits = sum(1 for op in results if op.tier == "hit")
        cache = self.status["cache"]
        if cache["hits"] != planned_hits or cache["misses"] != len(results) - planned_hits:
            self.violations.append(
                f"hit share off plan: daemon counted {cache['hits']} hits / {cache['misses']} misses, "
                f"the seed planned {planned_hits} / {len(results) - planned_hits}"
            )
        return results

    def request_plan(self):
        """The endless seeded stream of ``(input, round, planned tier)``."""
        rng = random.Random(self.seed)
        # The repeats walk a seeded cycle of the graphs, so every graph is
        # repeated equally often and the mix does not drift with the seed.
        cycle = itertools.cycle(rng.sample(self.inputs, len(self.inputs)))
        for round_no in itertools.count():
            stream = list(self.inputs) + [next(cycle) for _ in range(ROUND_HITS)]
            rng.shuffle(stream)
            seen = set()
            for item in stream:
                yield item, round_no, "hit" if item.label in seen else "miss"
                seen.add(item.label)

    def _client_loop(self, deadline: float, tracer: Optional[Tracer]):
        """The client's closed loop; returns its operations and the misses to check.

        A hit is compared in the loop with the miss it repeats.  Misses are
        decoded and checked after the loop, so the checks take no interpreter
        time from the daemon while it answers.
        """
        results: List[OpResult] = []
        misses: List[Tuple[ServiceInput, Dict[str, object], Dict[str, object], OpResult]] = []
        answers: Dict[str, Dict[str, object]] = {}  # label -> this round's miss response
        base_deadline = HARNESS_CAPS["exploration_time_limit"]
        for item, round_no, planned in self.request_plan():
            if time.perf_counter() >= deadline and (tracer is None or len(results) >= 2):
                break
            # An exploration deadline that never binds, new each round: the
            # configuration of this round alone.
            overrides = dict(HARNESS_CAPS, exploration_time_limit=base_deadline + round_no)
            doc = item.renamed(f"q{len(results)}_")
            traced = tracer is not None and len(results) % 2 == 1
            op = OpResult(0.0, traced=traced, tier=planned, label=item.label)
            results.append(op)
            try:
                if traced:
                    with tracer.span(OP, op=len(results), container=True) as op_span:
                        with tracer.span("service.roundtrip", container=True) as roundtrip:
                            response = self.client.optimize(graph_doc=doc, config=overrides, check=False)
                    op.seconds = op_span.duration
                else:
                    start = time.perf_counter()
                    response = self.client.optimize(graph_doc=doc, config=overrides, check=False)
                    op.seconds = time.perf_counter() - start
            except ServiceError as exc:
                op.error = f"{item.label}: {exc}"
                continue
            if not response.get("ok"):
                op.error = f"{item.label}: typed error {response.get('error')}"
                continue
            if response.get("cache") != planned:
                op.error = f"{item.label}: planned a {planned}, the daemon answered {response.get('cache')}"
                continue
            op.original_cost = response["original_cost_ms"]
            op.optimized_cost = response["optimized_cost_ms"]
            op.proved = response["stats"].get("extraction_status") == "optimal"
            queue_s, optimize_s = response["queue_seconds"], response["optimize_seconds"]
            if traced:
                if planned == "miss":
                    tracer.add_parts(roundtrip, {"service.queue": queue_s, "service.optimize": optimize_s})
                op.layers = {"service.queue_s": queue_s, "service.optimize_s": optimize_s,
                             "service.overhead_s": op.seconds - queue_s - optimize_s}
            if planned == "miss":
                answers[item.label] = response
                misses.append((item, doc, response["graph"], op))
            else:
                miss = answers[item.label]
                if response["fingerprint"] != miss["fingerprint"] or response["graph"] != miss["graph"]:
                    op.error = f"{item.label}: a cache hit differs from the miss it repeats"
        return results, misses

    def layer_metrics(self, results: Sequence[OpResult]) -> Dict[str, float]:
        traced = [op for op in results if op.traced and not op.error]
        hits = [op.seconds for op in traced if op.tier == "hit"]
        misses = [op for op in traced if op.tier == "miss"]
        # Fingerprint and serialization cost, timed on the same inputs and
        # weighed by how often the stream sent each one.
        fingerprint_s = {item.label: best_of(graph_fingerprint, item.graph) for item in self.inputs}
        serialize_s = {
            item.label: best_of(lambda g: graph_from_doc(json.loads(json.dumps(graph_to_doc(g)))), item.graph)
            for item in self.inputs
        }
        cache = self.status.get("cache", {})
        requests = cache.get("hits", 0) + cache.get("misses", 0)
        return {
            "service.roundtrip_hit_s": median(hits),
            "service.roundtrip_miss_s": median([op.seconds for op in misses]),
            "service.queue_s": mean([op.layers["service.queue_s"] for op in misses]),
            "service.optimize_s": mean([op.layers["service.optimize_s"] for op in misses]),
            "service.overhead_s": median([op.layers["service.overhead_s"] for op in traced]),
            "service.fingerprint_s": mean([fingerprint_s[op.label] for op in results]),
            "service.serialize_s": mean([serialize_s[op.label] for op in results]),
            "service.cache_hits": cache.get("hits", 0),
            "service.cache_misses": cache.get("misses", 0),
            "service.cache_hit_ratio": cache.get("hits", 0) / requests if requests else 0.0,
            "service.errors": self.status.get("errors", 0),
        }


WORKLOADS = {cls.name: cls for cls in (ZooSmall, Explore15k, ExtractBert, ServiceMix)}
