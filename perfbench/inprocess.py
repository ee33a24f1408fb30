"""The in-process workloads: ``corpus`` (the paper's evaluation through
``repro.api.execute``) and ``fuzz`` (generated cases through the
differential oracle).

Each workload imports the program in :meth:`setup`, so the caller can time
imports plus warm-up as set-up.
"""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path
from typing import List, Tuple

from common import Gate, GateError, PassResult, host_probe, probed, ratio, reference_scale
from tracer import REQUEST, Tracer


class _InProcess:
    """Both in-process workloads check fixed input sets, the same requests
    in the same order every pass; the benchmark seed changes nothing for
    them.  A request's cost is the median of its scaled times over the
    run's passes.
    """

    def __init__(self, inputs: int, root: Path) -> None:
        self.inputs = inputs
        self.root = root

    def summarize(self, results: List[PassResult]) -> Tuple[float, List[float], str]:
        """``(pass seconds, request costs, how they were sampled)``: each
        request's median time over the passes, and their sum."""
        latencies = [statistics.median(column) for column in zip(*(r.latencies for r in results))]
        return sum(latencies), latencies, "median over passes"

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class Corpus(_InProcess):
    """All 29 ``casestudies.ALL_CASES`` in catalogue order, one
    ``api.execute`` each.  Every pass clears the caches and uses a fresh
    solver session, as a cold command-line run would."""

    name = "corpus"
    #: A pass takes 0.5-1.0 s.
    min_passes = 10

    def setup(self) -> None:
        from repro import api
        from repro.casestudies import ALL_CASES
        from repro.smt.intern import clear_all_caches
        from repro.smt.session import SolverSession

        self.api = api
        self.cases = ALL_CASES
        self.clear_all_caches = clear_all_caches
        self.session_type = SolverSession
        self.gate = Gate(self.root, ALL_CASES)
        self._pass(Tracer())  # the untimed warm-up pass

    def run_pass(self, tracer: Tracer) -> PassResult:
        return probed(tracer, lambda: self._pass(tracer))

    def _pass(self, tracer: Tracer) -> PassResult:
        api = self.api
        self.clear_all_caches()
        session = self.session_type()
        latencies = []
        start = time.perf_counter()
        with api.open_cache() as cache:
            for case in self.cases:
                sent = time.perf_counter()
                with tracer.span(REQUEST, case.name):
                    verdict = api.execute(api.VerificationRequest(case=case.name), session=session)
                latencies.append(time.perf_counter() - sent)
                self.gate.check(case.name, verdict.verified, verdict.prepass)
            seconds = time.perf_counter() - start
            cache_stats = cache.stats()
        session_stats = session.stats()
        return PassResult(
            seconds=seconds,
            latencies=latencies,
            attempted=len(self.cases),
            failed=0,
            counts={
                "smt.session.queries": session_stats["queries"],
                "smt.session.conflicts": session_stats["theory_conflicts"],
                "smt.cache.hit_ratio": ratio(
                    cache_stats["hits"], cache_stats["hits"] + cache_stats["misses"]
                ),
            },
        )

class Fuzz(_InProcess):
    """A fixed slice of generated cases through ``fuzz.oracle.check_case``
    on one shared solver session, with the oracle's default 10 schedules
    and 2000-execution enumeration budget.

    The slice is CI's campaign 20240808 checked with the campaign's own
    oracle seed, exactly as ``python -m repro fuzz --seed 20240808`` checks
    it, so the benchmark seed changes nothing.  Generated cases differ in
    cost by a factor of five or more and the sampled schedules decide how
    soon a leak is found, so seed-dependent inputs made pass time follow
    the seed rather than the program.  ``--inputs`` picks another slice
    for held-out checks.

    A pass takes 2.5-4 s, so host probes bracket each check rather than
    the pass.
    """

    name = "fuzz"
    #: A pass takes 2.5-4 s.
    min_passes = 6
    size = 6
    #: Set-up checks this many slice cases untimed.
    warmup = 2

    def setup(self) -> None:
        from repro.fuzz import gen, oracle
        from repro.smt.cache import get_default
        from repro.smt.session import SolverSession

        self.gen = gen
        self.oracle = oracle
        self.cache = get_default()
        self.session = SolverSession()
        for index in range(self.warmup):
            self._check(Tracer(), self.gen.generate_case(self.inputs, index))

    def _check(self, tracer: Tracer, case):
        with tracer.span(REQUEST, case.name):
            outcome = self.oracle.check_case(case, session=self.session, seed=self.inputs)
        kind = self.oracle.failure_kind(outcome)
        if kind not in (None, "runtime-error"):
            raise GateError(f"{case.name}: oracle reports a {kind} failure")
        return outcome, kind

    def run_pass(self, tracer: Tracer) -> PassResult:
        session_before = self.session.stats()
        cache_before = self.cache.stats()
        checks = []
        # As in ``common.probed``, per check.
        probes = [] if tracer.enabled else [host_probe()]
        failed = exhaustive = 0
        for index in range(self.size):
            with tracer.span("fuzz.gen"):
                case = self.gen.generate_case(self.inputs, index)
            sent = time.perf_counter()
            outcome, kind = self._check(tracer, case)
            checks.append(time.perf_counter() - sent)
            if probes:
                probes.append(host_probe())
            failed += kind == "runtime-error"
            exhaustive += outcome.empirical_mode == "exhaustive"
        if probes:
            latencies = [
                seconds * reference_scale(before + after)
                for seconds, before, after in zip(checks, probes, probes[1:])
            ]
        else:
            latencies = checks
        session_after = self.session.stats()
        cache_after = self.cache.stats()
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        return PassResult(
            seconds=sum(checks),
            latencies=latencies,
            attempted=self.size,
            failed=failed,
            counts={
                "smt.session.queries": session_after["queries"] - session_before["queries"],
                "smt.session.conflicts": session_after["theory_conflicts"]
                - session_before["theory_conflicts"],
                "smt.cache.hit_ratio": ratio(hits, hits + misses),
                "fuzz.exhaustive_share": exhaustive / self.size,
            },
        )
