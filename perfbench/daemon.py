"""The ``daemon`` workload: ``python -m repro serve --workers 2`` on a unix
socket, driven in a closed loop by two tenants, each holding one
connection from its own thread of this process.

Each tenant sends a seeded stream of batches of 1-4 case requests and
waits for ``done`` before sending the next batch.  One pass of a tenant's
stream is a seeded permutation of the 29 corpus cases cut into batches.
The order and batch boundaries decide how long a cheap case queues behind
a slow one, so every run sends the same ``cycle`` permutations, each for
``repeats`` passes in a row.  A request's cost is the median of its
scaled latencies over the passes that sent it.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

from common import Gate, GateError, PassResult, probed, ratio, vm_hwm_mb
from tracer import REQUEST, Tracer

TENANTS = ("tenant-a", "tenant-b")
#: Events that end a request without a verdict; each counts as failed.
FAILED_EVENTS = frozenset({"rejected", "timeout", "worker_crash", "error", "retry_after"})
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


class Daemon:
    name = "daemon"
    #: Permutations per run, each sent ``repeats`` passes in a row.  A pass
    #: takes 0.7-1.2 s, so a 30-second run makes one cycle.
    cycle = 5
    repeats = 5
    min_passes = cycle * repeats

    def __init__(self, inputs: int, root: Path) -> None:
        #: Seed of the permutations; the benchmark seed changes nothing.
        self.inputs = inputs
        self.root = root
        self.proc = None
        self.clients: List = []
        self.worker_pids: List[int] = []
        # Relative to the checkout root, which is the daemon's working
        # directory too: unix socket paths are limited to ~100 bytes.
        self.run_dir = Path(".perfbench") / f"daemon-{os.getpid()}"

    def setup(self) -> None:
        from repro import api
        from repro.casestudies import ALL_CASES
        from repro.client import ServiceClient, ServiceUnavailable

        self.api = api
        self.gate = Gate(self.root, ALL_CASES)
        self.names = [case.name for case in ALL_CASES]
        self.passes = 0

        run_dir = self.root / self.run_dir
        run_dir.mkdir(parents=True, exist_ok=True)
        socket_path = self.run_dir / "daemon.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        with open(run_dir / "daemon.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--workers", "2",
                 "--socket", str(socket_path)],
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + START_TIMEOUT
        client = None
        while client is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}; see {run_dir}/daemon.log")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not start listening in time")
            try:
                client = ServiceClient(socket_path=self.root / socket_path, timeout=120.0)
            except ServiceUnavailable:  # not listening yet
                time.sleep(0.01)
        self.clients = [client] + [
            ServiceClient(socket_path=self.root / socket_path, timeout=120.0)
            for _ in TENANTS[1:]
        ]
        client.ping()
        self.worker_pids = self._live_worker_pids()
        # Warm-up: one full-corpus batch per tenant, concurrently.
        self._in_threads(lambda index: self._send(index, self.names, Tracer(), "warmup"))

    def _batches(self, tenant_index: int, pass_index: int) -> List[List[str]]:
        """A tenant's batches for one pass: a seeded permutation of the
        corpus cut into batches of 1-4, the same for ``repeats`` passes in
        a row."""
        permutation = pass_index // self.repeats % self.cycle
        rng = random.Random(f"{self.inputs}:{TENANTS[tenant_index]}:{permutation}")
        order = list(self.names)
        rng.shuffle(order)
        batches = []
        while order:
            size = rng.randint(1, 4)
            batches.append(order[:size])
            del order[:size]
        return batches

    # -- load ---------------------------------------------------------------

    def _send(self, tenant_index: int, names: List[str], tracer: Tracer, label: str) -> dict:
        """One batch, waiting for ``done``; returns its measurements, with
        each request's latency at its index (``inf`` if it failed).

        Every request of the batch must be answered exactly once, by a
        verdict or by a failure event; a whole-batch failure answers all.
        """
        api = self.api
        client = self.clients[tenant_index]
        requests = [api.VerificationRequest(case=name) for name in names]
        latencies = [math.inf] * len(names)
        answered: Counter = Counter()
        failed = 0
        solve = 0.0
        sent = time.perf_counter()
        with tracer.span(REQUEST, f"{TENANTS[tenant_index]}:{label}"):
            for event in client.stream_batch(requests, tenant=TENANTS[tenant_index]):
                kind = event.get("event")
                if kind == api.EVENT_VERDICT:
                    latency = time.perf_counter() - sent
                    index = event["index"]
                    answered[index] += 1
                    verdict = api.Verdict.from_wire(event["verdict"])
                    name = names[index] if 0 <= index < len(names) else None
                    if verdict.name != name:
                        raise GateError(f"verdict for {verdict.name!r} in slot {index} of {names}")
                    self.gate.check(name, verdict.verified, verdict.prepass)
                    latencies[index] = latency
                    solve += verdict.elapsed
                elif kind in FAILED_EVENTS:
                    if "index" in event:
                        answered[event["index"]] += 1
                        failed += 1
                    else:
                        unanswered = [i for i in range(len(names)) if not answered[i]]
                        answered.update(unanswered)
                        failed += len(unanswered)
        wall = time.perf_counter() - sent
        if answered != Counter(range(len(names))):
            unanswered = [i for i in range(len(names)) if not answered[i]]
            extra = sorted(i for i, n in answered.items() if n > 1 or not 0 <= i < len(names))
            raise GateError(
                f"batch of {len(names)} requests: none answered {unanswered}, "
                f"answered more than once or unknown {extra}"
            )
        return {
            "latencies": latencies,
            "failed": failed,
            "attempted": len(names),
            "solve": solve,
            "overhead": wall - solve,
        }

    def _stream(self, tenant_index: int, pass_index: int, tracer: Tracer) -> List[dict]:
        return [
            self._send(tenant_index, names, tracer, f"{pass_index}.{batch}")
            for batch, names in enumerate(self._batches(tenant_index, pass_index))
        ]

    def _in_threads(self, job) -> list:
        """Run ``job(tenant_index)`` on one thread per tenant; re-raise the
        first failure."""
        results: list = [None] * len(TENANTS)
        errors: list = []

        def target(index: int) -> None:
            try:
                results[index] = job(index)
            except BaseException as error:  # noqa: BLE001 — re-raised below
                errors.append(error)

        threads = [threading.Thread(target=target, args=(i,)) for i in range(len(TENANTS))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(150.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a tenant thread did not finish within 150 s")
        if errors:
            raise errors[0]
        return results

    def summarize(self, results: List[PassResult]) -> Tuple[float, List[float], str]:
        """``(pass seconds, request costs, how they were sampled)``: each
        request's median latency over the passes that sent its permutation,
        pooled over the run's complete cycles, and the median pass time,
        all scaled."""
        k = self.repeats
        groups = [results[i : i + k] for i in range(0, len(results) - k + 1, k)]
        groups = groups[: len(groups) // self.cycle * self.cycle]
        latencies = [
            cost
            for group in groups
            for cost in map(statistics.median, zip(*(r.latencies for r in group)))
            if cost != math.inf
        ]
        passes = [r for group in groups for r in group]
        pass_seconds = statistics.median(r.seconds * r.scale for r in passes)
        return pass_seconds, latencies, f"{len(groups)} permutation(s) x {k} passes"

    def run_pass(self, tracer: Tracer) -> PassResult:
        return probed(tracer, lambda: self._pass(tracer))

    def _pass(self, tracer: Tracer) -> PassResult:
        before = self.clients[0].stats() if tracer.enabled else None
        pass_index = self.passes
        self.passes += 1
        start = time.perf_counter()
        streams = self._in_threads(lambda index: self._stream(index, pass_index, tracer))
        seconds = time.perf_counter() - start
        batches = [batch for stream in streams for batch in stream]
        result = PassResult(
            seconds=seconds,
            latencies=[latency for batch in batches for latency in batch["latencies"]],
            attempted=sum(batch["attempted"] for batch in batches),
            failed=sum(batch["failed"] for batch in batches),
        )
        if before is not None:
            result.counts = self._counts(before, self.clients[0].stats())
            result.times = {
                "service.overhead_ms": statistics.median(b["overhead"] for b in batches)
                * 1000.0,
                "worker.solve_s": sum(b["solve"] for b in batches),
            }
        return result

    @staticmethod
    def _counts(before: dict, after: dict) -> Dict[str, float]:
        def delta(*path: str) -> float:
            old, new = before, after
            for key in path:
                old, new = old[key], new[key]
            return new - old

        def session_total(stats: dict, key: str) -> int:
            return sum(s.get(key, 0) for s in stats["pool"]["tenants"].values())

        hits = delta("cache", "hits")
        misses = delta("cache", "misses")
        return {
            "service.cache_hits": hits,
            "service.cache_misses": misses,
            "service.cache_hit_ratio": ratio(hits, hits + misses),
            "service.sessions_reused": delta("pool", "reused"),
            "service.load_shed": delta("load_shed"),
            "service.retries": delta("retries"),
            "service.timeouts": delta("timeouts"),
            "service.worker_crashes": delta("worker_crashes"),
            "smt.session.queries": session_total(after, "queries")
            - session_total(before, "queries"),
            "smt.session.conflicts": session_total(after, "theory_conflicts")
            - session_total(before, "theory_conflicts"),
        }

    # -- lifecycle ------------------------------------------------------------

    def _live_worker_pids(self) -> List[int]:
        """The worker pids the daemon reports now (workers respawn after
        timeouts and crashes)."""
        return [worker["pid"] for worker in self.clients[0].stats()["workers"] if worker["pid"]]

    def peak_rss_mb(self) -> float:
        """Supervisor plus worker ``VmHWM``, read while they are alive."""
        return sum(vm_hwm_mb(pid) for pid in [self.proc.pid] + self._live_worker_pids())

    def close(self) -> None:
        """Shut the daemon down and wait until it and its workers are gone."""
        if self.clients:
            try:
                self.worker_pids += self._live_worker_pids()
                self.clients[0].shutdown()
            except Exception:  # noqa: BLE001 — killed below if still up
                pass
            for client in self.clients:
                client.close()
            self.clients = []
        if self.proc is not None:
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(STOP_TIMEOUT)
            self.proc = None
        deadline = time.monotonic() + STOP_TIMEOUT
        for pid in self.worker_pids:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                time.sleep(0.01)
        self.worker_pids = []
        shutil.rmtree(self.root / self.run_dir, ignore_errors=True)
