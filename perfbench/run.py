"""End-to-end benchmark of the verification pipeline.

    python3 perfbench/run.py --workload corpus|fuzz|daemon --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Each run sets the workload up (imports
plus warm-up), then runs passes over the workload's fixed input set until
``--seconds`` have passed and at least the workload's minimum number of
passes is done.  Set-up is sampled five times, spread over the run: twice
in fresh interpreters before the passes, once here, and twice in fresh
interpreters after them, each scaled by host probes like the passes.
Every verdict is checked against the case catalogue and
``tests/golden/verdicts.json``; a mismatch exits 1 and
reports no timing.  Every workload sends the same requests on every run;
``--seed`` changes nothing and ``--inputs`` picks other fuzz cases and
daemon streams.  ``corpus`` reports each request's best time over a fixed
number of passes; ``fuzz`` and ``daemon`` scale their times to a host
probe's reference speed and report medians (see README.md).

The metrics printed, with their units, are the ones ``BENCHMARK.json``
declares.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics.  With ``--trace 1`` passes alternate
between traced and untraced; the traced ones record layer spans (see
``tracer.py``), the spans are written as Chrome trace-event JSON under
``.perfbench/``, and the last line reports the per-layer metrics.  Layer
counts come from the first traced pass, so they repeat exactly for a given
seed; layer times are medians over the traced passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Dict, List

from common import GateError, PassResult, host_probe, ratio, reference_scale
from daemon import Daemon
from inprocess import Corpus, Fuzz
from tracer import LAYERS, PASS, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {cls.name: cls for cls in (Corpus, Fuzz, Daemon)}
#: Set-ups in fresh interpreters before and after the measured passes; the
#: run's own set-up makes one more.
SETUP_PROBES = (2, 2)


def declared_units() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` as
    ``BENCHMARK.json`` declares them: the run prints exactly these."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {
        key: {metric["name"]: metric["unit"] for metric in declared[key]}
        for key in ("end_to_end", "per_layer")
    }


def _setup_probe(workload: str, seed: int, inputs: int) -> float:
    """Time one set-up in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--inputs", str(inputs), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        if completed.returncode == 1:
            raise GateError("set-up probe: verdict mismatch")
        raise RuntimeError(f"set-up probe exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def _inclusive_name(layer: str) -> str:
    if layer.startswith("verifier.conformance."):
        return layer + "_s"  # verifier.conformance.symbolic_s, .sampled_s
    return layer + ".s"


def _pass_layers(spans: list, counts: Counter, result: PassResult):
    """Per-layer figures of one traced pass: ``(counts, times)``, where
    counts holds the counts and ratios of counts, which repeat exactly for
    a seed, and times the timings."""
    inclusive, own = self_times(spans)
    times: Dict[str, float] = {}
    for layer in LAYERS:
        times[_inclusive_name(layer)] = inclusive.get(layer, 0.0)
        times[layer + ".self_s"] = own.get(layer, 0.0)
    steps = counts["lang.step.calls"]
    times.update(
        {
            # Share of the pass inside a named layer.  Layer spans nest, so
            # their self times add up to the time under the outermost ones.
            "trace.coverage": ratio(
                sum(own.get(layer, 0.0) for layer in LAYERS), inclusive.get(PASS, 0.0)
            ),
            # The step function runs inside the interpreter layers' self time.
            "lang.us_per_step": ratio(
                (own.get("lang.enumerate", 0.0) + own.get("lang.run", 0.0)) * 1e6, steps
            ),
        }
    )
    times.update(result.times)
    pass_counts: Dict[str, float] = {
        name: counts[name]
        for name in (
            "smt.check_validity.calls",
            "security.ni.executions",
            "security.ni_sampled.executions",
            "lang.enumerate.executions",
            "lang.run.calls",
        )
    }
    pass_counts.update(
        {
            "lang.steps": steps,
            "analysis.prepass.decided_ratio": ratio(
                counts["analysis.prepass.secure"], counts["analysis.prepass.calls"]
            ),
            "lang.enumerate.completed_ratio": ratio(
                counts["lang.enumerate.completed"], counts["lang.enumerate.calls"]
            ),
        }
    )
    pass_counts.update(result.counts)
    return pass_counts, times


def _measure(workload, seconds: float, trace: bool) -> dict:
    tracer = Tracer()
    results: List[PassResult] = []
    traced: List[PassResult] = []
    untraced: List[PassResult] = []
    layer_passes: list = []
    minimum = 2 if trace else workload.min_passes
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        if trace and len(results) % 2 == 0:
            tracer.install()
            first_span = len(tracer.spans)
            counts_before = Counter(tracer.counts)
            try:
                with tracer.span(PASS):
                    result = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            counts = tracer.counts - counts_before
            layer_passes.append(_pass_layers(tracer.spans[first_span:], counts, result))
            traced.append(result)
        else:
            result = workload.run_pass(tracer)
            untraced.append(result)
        results.append(result)
    return {
        "results": results,
        "traced": traced,
        "untraced": untraced,
        "layer_passes": layer_passes,
        "tracer": tracer,
    }


def _end_to_end(workload, measured: dict) -> Dict[str, float]:
    """Every end-to-end metric but ``setup_s``."""
    pass_seconds, latencies, sampled = workload.summarize(measured["results"])
    # Inclusive: with a few best times, the exclusive method extrapolates.
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    beyond = sum(latency > deciles[8] for latency in latencies)
    sys.stderr.write(
        f"{workload.name}: {len(measured['results'])} passes, {sampled}, {len(latencies)} latency "
        f"samples, {beyond} beyond p90\n"
    )
    return {
        "pass_s": pass_seconds,
        "latency_p50_ms": deciles[4] * 1000.0,
        "latency_p90_ms": deciles[8] * 1000.0,
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def _per_layer(workload, seed: int, measured: dict) -> Dict[str, float]:
    """Counts from the first traced pass, times as medians over the traced
    passes."""
    layer_passes = measured["layer_passes"]
    metrics = dict(layer_passes[0][0])
    for name in layer_passes[0][1]:
        metrics[name] = statistics.median(times.get(name, 0.0) for _, times in layer_passes)
    results = measured["results"]
    metrics["failed_share"] = ratio(
        sum(r.failed for r in results), sum(r.attempted for r in results)
    )
    metrics["trace.overhead"] = (
        statistics.median(r.seconds for r in measured["traced"])
        / statistics.median(r.seconds for r in measured["untraced"])
        - 1.0
    )
    path = ROOT / ".perfbench" / f"trace-{workload.name}-seed{seed}.json"
    measured["tracer"].write_chrome_trace(str(path))
    sys.stderr.write(f"{workload.name}: Chrome trace written to {path.relative_to(ROOT)}\n")
    return metrics


def _emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units) -> None:
    """Print the result line: every metric in ``units``, in its order; a
    declared metric the workload does not exercise reads 0."""
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    if units:
        idle = [name for name in units if name not in metrics]
        sys.stderr.write(f"not exercised: {json.dumps(idle)}\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()
                },
            }
        ),
        flush=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240808)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inputs", type=int, default=20240808,
        help="seed of the fuzz slice and the daemon's streams (held-out checks)",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))

    units = declared_units()
    workload = WORKLOADS[args.workload](args.inputs, ROOT)
    probes_before, probes_after = (0, 0) if args.setup_only or args.trace else SETUP_PROBES
    probe = lambda: _setup_probe(args.workload, args.seed, args.inputs)  # noqa: E731
    attempted = failed = 0
    try:
        setup = [probe() for _ in range(probes_before)]
        before = host_probe()
        started = time.perf_counter()
        workload.setup()
        setup.append((time.perf_counter() - started) * reference_scale(before + host_probe()))
        if args.setup_only:
            print(json.dumps({"setup_s": setup[-1]}))
            return 0
        measured = _measure(workload, args.seconds, bool(args.trace))
        attempted = sum(r.attempted for r in measured["results"])
        failed = sum(r.failed for r in measured["results"])
        if args.trace:
            _emit(True, attempted, failed, _per_layer(workload, args.seed, measured),
                  units["per_layer"])
            return 0
        metrics = _end_to_end(workload, measured)
        workload.close()
        setup += [probe() for _ in range(probes_after)]
        sys.stderr.write(f"{workload.name}: set-up samples {[round(s, 3) for s in setup]}\n")
        # Median of the scaled set-ups, spread over the run: their best
        # would pick a sample whose probes happened to read slow.
        metrics["setup_s"] = statistics.median(setup)
        missing = sorted(set(units["end_to_end"]) - set(metrics))
        if missing:
            raise RuntimeError(f"declared end-to-end metrics not measured: {missing}")
        _emit(True, attempted, failed, metrics, units["end_to_end"])
        return 0
    except GateError as error:
        print(f"verdict gate: {error}", file=sys.stderr)
        _emit(False, max(attempted, 1), failed, {}, {})
        return 1
    except Exception:  # noqa: BLE001 — report and fail the run
        traceback.print_exc()
        return 2
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
