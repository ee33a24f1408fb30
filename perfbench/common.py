"""Pieces shared by the benchmark's workloads: the verdict gate, the
per-pass result record and the host probe."""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: The golden verdict catalogue the gate reads (never writes).
GOLDEN = Path("tests") / "golden" / "verdicts.json"


class GateError(Exception):
    """A verdict disagreed with its reference: the run yields no timing."""


class Gate:
    """Checks every verdict against the case catalogue's
    ``expected_verified`` and the golden verdict file, which must agree."""

    def __init__(self, root: Path, cases: Sequence) -> None:
        with open(root / GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
        self.expected: Dict[str, tuple] = {}
        for case in cases:
            entry = golden.get(case.name)
            if entry is None:
                raise GateError(f"{case.name!r} is missing from {GOLDEN}")
            if entry["verified"] != case.expected_verified:
                raise GateError(
                    f"{case.name!r}: catalogue expects verified={case.expected_verified}, "
                    f"{GOLDEN} says {entry['verified']}"
                )
            self.expected[case.name] = (case.expected_verified, entry.get("prepass"))

    def check(self, name: str, verified: bool, prepass: Optional[str]) -> None:
        expected = self.expected.get(name)
        if expected is None:
            raise GateError(f"verdict for unknown case {name!r}")
        if (verified, prepass) != expected:
            raise GateError(
                f"{name!r}: got verified={verified} prepass={prepass}, "
                f"expected verified={expected[0]} prepass={expected[1]}"
            )


@dataclass
class PassResult:
    """One pass over a workload's fixed input set."""

    seconds: float
    #: Seconds from request to verdict, one entry per verdict, scaled to the
    #: host probe's reference speed in untraced passes.
    latencies: List[float]
    attempted: int
    failed: int
    #: Per-layer figures the workload measures itself, reported from traced
    #: passes only: counts and ratios of counts (session and cache counters,
    #: daemon stats), which repeat exactly for a seed ...
    counts: Dict[str, float] = field(default_factory=dict)
    #: ... and times.
    times: Dict[str, float] = field(default_factory=dict)
    #: The factor that scaled this pass's latencies, for its ``seconds``
    #: (1 where they were scaled one by one, as in ``fuzz``, or not at all).
    scale: float = 1.0


#: The probe job's duration, in seconds, on the host the baseline was taken
#: on (2 vCPUs, shared) while that host ran at its quiet speed.  Every
#: workload scales its times to this speed.
PROBE_REFERENCE_S = 0.0024
PROBE_REPEATS = 9


def _probe_job() -> None:
    """A fixed pure-Python job shaped like the interpreter's inner loop:
    tuple states unpacked and rebuilt, dict lookups, short tuples sliced
    and frozensets built.  It calls nothing in the program, so its
    duration follows only how fast the host runs Python at the moment."""
    seen: dict = {}
    state = (0, 1, ())
    for i in range(2000):
        a, b, trail = state
        key = (a % 97, b % 89, len(trail))
        seen[key] = seen.get(key, 0) + 1
        trail = (trail + (a,))[-8:]
        state = (b, (a + b) % 10007, trail)
        if len(frozenset(trail)) > 5:
            seen[trail] = i


def host_probe() -> List[float]:
    """Durations of ``PROBE_REPEATS`` runs of the probe job, back to back."""
    durations = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _probe_job()
        durations.append(time.perf_counter() - start)
    return durations


def reference_scale(probes: List[float]) -> float:
    """The factor that scales times taken between ``probes`` to the
    reference speed."""
    return PROBE_REFERENCE_S / statistics.median(probes)


def probed(tracer, run: Callable[[], PassResult]) -> PassResult:
    """``run()``'s pass, with its latencies scaled by host probes taken
    right before and right after it.  Traced passes are not probed: the
    probes would put untraced time inside them."""
    if tracer.enabled:
        return run()
    before = host_probe()
    result = run()
    result.scale = reference_scale(before + host_probe())
    result.latencies = [latency * result.scale for latency in result.latencies]
    return result


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")
