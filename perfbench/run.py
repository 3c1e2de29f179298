"""End-to-end benchmark of the TENSAT reproduction: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zoo-small --seed 1 --seconds 16 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``zoo-small``    -- one-shot optimization of the built-ins that saturate at
  ``small`` and of the two checked-in ONNX models, harness caps, ILP;
* ``explore-15k``  -- ``nasnet`` at ``full`` under the paper's exploration
  limits with a 15k e-node cap, greedy extraction;
* ``extract-bert`` -- ``bert`` at ``small``, ILP under a fixed budget it
  cannot prove optimality in;
* ``service-mix``  -- an in-process daemon serving one closed-loop client.

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
spans recorded.  With ``--trace 1`` every other operation is traced and the
run reports the per-layer metrics, the trace's coverage of operation wall
time and the tracing overhead, and writes the spans as Chrome trace-event
JSON under ``perfbench/traces/``.

Every operation's output is checked (validation, interface and the numpy
reference executor) and so is the workload's invariant.  The last line of
standard output is one JSON object; the exit code is 0 only when every check
passed.  ``setup_s`` is the median over fresh interpreters started by the
run (``--setup-probe``) of the time to the first operation being ready.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from measure import Tally, mean, median, peak_rss_mb, speedup_geomean_pct, tail  # noqa: E402
from spans import Tracer, coverage, self_times  # noqa: E402

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "speedup_geomean_pct": "%",
}

#: Per-layer metrics (``--trace 1``), name -> unit.  Times are seconds per
#: traced operation; a layer a workload does not exercise reads 0.
PER_LAYER: Dict[str, str] = {
    "failed_ratio": "failed/attempted",
    "extract_proved_ratio": "proved/attempted",
    "op_tail.percentile": "%",
    "op_tail.samples": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "import.repro_s": "s",
    "ir.build_s": "s",
    "ir.onnx_import_s": "s",
    "session.init_s": "s",
    "trie.compile_s": "s",
    "explore.s": "s",
    "explore.iterations": "count",
    "explore.search_s": "s",
    "explore.apply_s": "s",
    "explore.rebuild_s": "s",
    "explore.condition_s": "s",
    "explore.multi_join_s": "s",
    "explore.unattributed_s": "s",
    "explore.matches": "count",
    "explore.applied": "count",
    "explore.applied_ratio": "ratio",
    "explore.enodes": "count",
    "explore.eclasses": "count",
    "explore.rss_mb": "MB",
    "extract.s": "s",
    "extract.prune_s": "s",
    "extract.greedy_s": "s",
    "extract.bnb_s": "s",
    "extract.ilp_s": "s",
    "extract.ilp_vars": "count",
    "extract.ilp_constraints": "count",
    "extract.prune_ratio": "ratio",
    "extract.proved": "count",
    "materialize.s": "s",
    "result.s": "s",
    "service.roundtrip_hit_s": "s",
    "service.roundtrip_miss_s": "s",
    "service.queue_s": "s",
    "service.optimize_s": "s",
    "service.overhead_s": "s",
    "service.fingerprint_s": "s",
    "service.serialize_s": "s",
    "service.cache_hits": "count",
    "service.cache_misses": "count",
    "service.cache_hit_ratio": "ratio",
    "service.errors": "count",
    "verify.s": "s",
}

WORKLOAD_NAMES = ("zoo-small", "explore-15k", "extract-bert", "service-mix")

TRACE_DIR = HERE / "traces"

#: Fresh interpreters set up per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


class SetupError(RuntimeError):
    """The program could not be imported or the workload could not be set up."""


def import_program() -> float:
    """Import the package under test; return the seconds ``import repro`` took."""
    start = time.perf_counter()
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"cannot import the program from {ROOT / 'src'}: {exc}") from exc
    return time.perf_counter() - start


def setup_probe(workload: str, seed: int, smoke: bool) -> int:
    """Child side of a set-up sample: import, build, report ready, tear down."""
    import_s = import_program()
    from workloads import WORKLOADS

    instance = WORKLOADS[workload](smoke=smoke)
    try:
        instance.setup(seed)
        print(json.dumps({"import_s": import_s}), flush=True)
    finally:
        instance.close()
    return 0


def measure_setup(workload: str, seed: int, smoke: bool, samples: int) -> Tuple[List[float], List[float]]:
    """Set the workload up in ``samples`` fresh interpreters, one after another.

    Returns the seconds from starting each interpreter to its inputs being
    ready, and the seconds ``import repro`` took in each.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setup_s: List[float] = []
    import_s: List[float] = []
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.communicate(timeout=120)
            except BaseException:
                child.kill()
                raise
        if child.returncode != 0 or not line:
            raise SetupError(f"set-up probe for {workload} exited with code {child.returncode}")
        setup_s.append(elapsed)
        import_s.append(json.loads(line)["import_s"])
    return setup_s, import_s


def end_to_end_metrics(workload, results, setup_s: Sequence[float]) -> Dict[str, float]:
    ok = [op for op in results if not op.error]
    seconds = [op.seconds for op in ok] or [math.nan]
    tail_value, _, _ = tail(seconds)
    return {
        "setup_s": median(setup_s),
        "op_p50_s": median(seconds),
        "op_tail_s": tail_value,
        "ops_per_s": len(ok) / workload.timed_seconds(results),
        "peak_rss_mb": peak_rss_mb(),
        "speedup_geomean_pct": speedup_geomean_pct((op.original_cost, op.optimized_cost) for op in ok)
        if ok else 0.0,
    }


def per_layer_metrics(workload, results, tracer: Tracer, import_s: Sequence[float]) -> Dict[str, float]:
    metrics = {name: 0.0 for name in PER_LAYER}
    traced = [op for op in results if op.traced and not op.error]
    untraced = [op.seconds for op in results if not op.traced and not op.error]
    keys = sorted({key for op in traced for key in op.layers})
    for key in keys:
        if key in metrics:
            metrics[key] = mean([op.layers.get(key, 0.0) for op in traced])
    matches = sum(op.layers.get("explore.matches", 0) for op in traced)
    applied = sum(op.layers.get("explore.applied", 0) for op in traced)
    metrics["explore.applied_ratio"] = applied / matches if matches else 0.0
    metrics["explore.rss_mb"] = max([op.layers.get("explore.rss_mb", 0.0) for op in traced] or [0.0])
    metrics["extract.proved"] = sum(op.proved for op in traced)
    metrics.update(workload.layer_metrics(results))

    setup_spans: Dict[str, float] = {}
    for span in tracer.spans:
        if span.op is None and span.parent is None:
            setup_spans[span.name] = setup_spans.get(span.name, 0.0) + span.duration
    metrics["ir.build_s"] = setup_spans.get("ir.build", 0.0)
    metrics["ir.onnx_import_s"] = setup_spans.get("ir.onnx_import", 0.0)
    metrics["import.repro_s"] = median(import_s)
    metrics["verify.s"] = workload.verify_seconds / max(len(results), 1)

    tally = tally_of(results)
    metrics["failed_ratio"] = tally.failed_ratio
    metrics["extract_proved_ratio"] = sum(op.proved for op in results) / max(len(results), 1)
    if untraced:
        _, percentile, beyond = tail(untraced)
        metrics["op_tail.percentile"] = percentile
        metrics["op_tail.samples"] = beyond
    metrics["trace.coverage"] = coverage(tracer.spans)
    if traced and untraced:
        metrics["trace.overhead_s"] = median([op.seconds for op in traced]) - median(untraced)
    return metrics


def print_self_times(tracer: Tracer, traced_ops: int, out) -> None:
    """Self time of each span name per traced operation, and the last traced
    operation's unattributed exploration time iteration by iteration."""
    totals: Dict[str, float] = {}
    for span, seconds in zip(tracer.spans, self_times(tracer.spans)):
        if span.op is not None:
            totals[span.name] = totals.get(span.name, 0.0) + seconds
    print(f"self time per traced operation ({traced_ops} traced):", file=out)
    for name, total in sorted(totals.items(), key=lambda item: -item[1]):
        print(f"  {name:24s} {total / max(traced_ops, 1):.6g} s", file=out)
    steps = [span for span in tracer.spans if "unattributed_s" in span.args]
    if steps:
        last = [span.args["unattributed_s"] for span in steps if span.op == steps[-1].op]
        print("explore.unattributed_s per iteration (last traced operation): "
              + ", ".join(f"{value:.6g}" for value in last) + " s", file=out)


def tally_of(results) -> Tally:
    tally = Tally()
    for op in results:
        tally.record(op.error)
    return tally


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    out=sys.stdout,
) -> Tuple[bool, Dict[str, object]]:
    """One run; prints the report to ``out`` and returns ``(correct, result line)``."""
    setup_s, import_s = measure_setup(workload_name, seed, smoke, 1 if smoke else SETUP_SAMPLES)
    import_program()
    from workloads import WORKLOADS

    tracer = Tracer() if trace else None
    workload = WORKLOADS[workload_name](smoke=smoke)
    try:
        workload.setup(seed, tracer)
        results = workload.run(seconds, tracer)
    finally:
        workload.close()

    tally = tally_of(results)
    correct = tally.failed == 0 and not workload.violations
    untraced_results = [op for op in results if not op.traced]
    if trace:
        metrics = per_layer_metrics(workload, results, tracer, import_s)
        units = PER_LAYER
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{workload_name}-seed{seed}.json"
        trace_path.write_text(json.dumps(tracer.chrome_trace()))
        print(f"trace written to {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)", file=out)
        print_self_times(tracer, sum(op.traced for op in results), out)
    else:
        metrics = end_to_end_metrics(workload, untraced_results, setup_s)
        units = END_TO_END
        ok_seconds = [op.seconds for op in untraced_results if not op.error] or [math.nan]
        _, percentile, beyond = tail(ok_seconds)
        print(f"op_tail_s is p{percentile:.2f} of {len(ok_seconds)} operations, "
              f"{beyond} samples beyond it", file=out)
        print(f"failed_ratio = {tally.failed_ratio:.6g} failed/attempted "
              f"({tally.failed} of {tally.attempted})", file=out)
        proved = sum(op.proved for op in results)
        print(f"extract_proved_ratio = {proved / max(len(results), 1):.6g} proved/attempted "
              f"({proved} of {len(results)})", file=out)
    if workload_name == "service-mix":
        hits = sum(op.tier == "hit" for op in results)
        print(f"seeded hit share = {hits / max(len(results), 1):.6g} ({hits} of {len(results)} requests)",
              file=out)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}", file=out)
    for reason in tally.reasons + workload.violations:
        print(f"FAILED: {reason}", file=out)

    line = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line), file=out, flush=True)
    return correct, line


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0, help="timed seconds of the loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed, args.smoke)
        correct, _ = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
