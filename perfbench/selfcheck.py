"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--workload corpus|fuzz|daemon ...] [--seed N]

1. ``BENCHMARK.json`` declares exactly the workloads ``run.py`` runs, and
   every metric it declares gets a value from at least one workload.
2. Two traced runs of each workload with the same seed must report the
   same layer counts.
3. Wrong answers must trip the verdict gate: the run exits 1 and reports
   ``"correct": false`` with no metrics.  Two are injected: a flipped
   verdict in ``repro.api.execute`` (``corpus``), and a verdict event the
   daemon client drops or receives twice (``daemon``).

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import run

#: Counts that must repeat exactly for a seed, and for each workload the
#: ones that must be non-zero (so the check cannot pass vacuously).
EXACT = (
    "lang.steps",
    "lang.run.calls",
    "lang.enumerate.executions",
    "security.ni.executions",
    "security.ni_sampled.executions",
    "smt.check_validity.calls",
    "smt.session.queries",
    "service.cache_hits",
    "service.cache_misses",
)
NONZERO = {
    "corpus": ("lang.steps", "security.ni.executions", "smt.check_validity.calls"),
    "fuzz": ("lang.steps", "lang.enumerate.executions", "smt.check_validity.calls"),
    "daemon": ("service.cache_hits", "service.cache_misses"),
}


def traced_run(workload: str, seed: int) -> tuple:
    """The per-layer metrics of one short traced run, and the declared
    metrics it does not exercise."""
    completed = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{completed.stderr}")
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    idle = next(
        json.loads(line.split(":", 1)[1])
        for line in completed.stderr.splitlines()
        if line.startswith("not exercised:")
    )
    return {name: metrics[name]["value"] for name in EXACT}, set(idle)


def check_counts(workload: str, seed: int) -> tuple:
    """Problems found, and the declared metrics the workload leaves idle."""
    (first, idle), (second, _) = traced_run(workload, seed), traced_run(workload, seed)
    problems = [
        f"{workload}: {name} differs between runs ({first[name]} vs {second[name]})"
        for name in EXACT
        if first[name] != second[name]
    ]
    problems += [f"{workload}: {name} is 0" for name in NONZERO[workload] if not first[name]]
    print(f"{workload}: counts {first}", file=sys.stderr)
    return problems, idle


def _refused(argv: list, what: str) -> list:
    """Run ``run.main(argv)`` in-process and expect the gate to refuse."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(argv)
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    if code == 1 and result["correct"] is False and not result["metrics"]:
        return []
    return [f"{what} was not refused (exit {code}, result {result})"]


def check_gate() -> list:
    """Inject wrong answers in-process and expect the gate to refuse."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro import api
    from repro.client import ServiceClient

    original = api.execute

    def wrong(request, **kwargs):
        verdict = original(request, **kwargs)
        if request.case == "Figure 1 (leaky)":
            return dataclasses.replace(verdict, verified=not verdict.verified)
        return verdict

    api.execute = wrong
    try:
        problems = _refused(
            ["--workload", "corpus", "--seconds", "1", "--trace", "1"], "a flipped verdict"
        )
    finally:
        api.execute = original

    stream_batch = ServiceClient.stream_batch
    for copies, what in ((0, "a dropped verdict"), (2, "a duplicated verdict")):

        def tampered(self, requests, copies=copies, **kwargs):
            """The batch's first verdict event arrives ``copies`` times."""
            first = True
            for event in stream_batch(self, requests, **kwargs):
                if event.get("event") == api.EVENT_VERDICT and first:
                    first = False
                    yield from [event] * copies
                else:
                    yield event

        ServiceClient.stream_batch = tampered
        try:
            problems += _refused(["--workload", "daemon", "--seconds", "1", "--trace", "1"], what)
        finally:
            ServiceClient.stream_batch = stream_batch
    return problems


def check_declared(idle: set) -> list:
    """BENCHMARK.json must declare run.py's workloads, and each declared
    metric must get a value on some workload (``idle`` holds the metrics
    that no workload exercised)."""
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    problems = [
        f"BENCHMARK.json declares {name}, which no workload measures" for name in sorted(idle)
    ]
    if {w["name"] for w in declared["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match run.py's")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240808)
    args = parser.parse_args()
    problems = []
    workloads = args.workload or sorted(run.WORKLOADS)
    idle = set(run.declared_units()["per_layer"])
    for workload in workloads:
        found, idle_here = check_counts(workload, args.seed)
        problems += found
        idle &= idle_here
    if len(workloads) == len(run.WORKLOADS):
        problems += check_declared(idle)
    problems += check_gate()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
