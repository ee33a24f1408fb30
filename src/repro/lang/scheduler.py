"""Schedulers over the small-step semantics.

A scheduler is a policy for choosing among the successor steps of a
configuration: ``scheduler(config, steps)`` returns an index into
``steps``, whose items carry the ``choice`` label.  The interpreter
(:mod:`repro.lang.interpreter`) calls it with the flat machine's
configuration and :class:`~repro.lang.machine.Move` list, which list the
same successors as :func:`repro.lang.semantics.step`.  Internal timing
channels (Sec. 1) arise precisely because this choice can correlate with
secret-dependent timing; the schedulers here let the test and benchmark
harnesses explore that space:

* :class:`RoundRobinScheduler` — the deterministic scheduler from the
  Fig. 1 discussion: threads take turns (modelled as alternating the
  chosen top-level branch of ``||`` when both can move);
* :class:`RandomScheduler` — seeded uniform choice, for probabilistic
  exploration;
* :class:`FixedScheduler` — replays a recorded choice sequence;
* :func:`enumerate_executions` — the reference path enumeration over
  :func:`~repro.lang.semantics.step`, one final per interleaving.
  Production code uses the distinct-state search
  :func:`repro.lang.machine.explore`; this stays as the oracle tests
  compare it against.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Optional, Sequence

from .semantics import ABORT, Config, Step, step

Scheduler = Callable[[Config, Sequence[Step]], int]


class RoundRobinScheduler:
    """Deterministic round-robin over the top-level thread labels.

    At every choice point the scheduler prefers the thread whose label
    comes next in a rotating order over the labels currently able to move.
    With two threads this alternates L, R, L, R, ... whenever both are
    enabled, matching the deterministic scheduler under which the Fig. 1
    program leaks whether ``h > 100``.
    """

    def __init__(self) -> None:
        self._turn = 0

    def __call__(self, config: Config, steps: Sequence[Step]) -> int:
        if len(steps) == 1:
            return 0
        labels = sorted({step_.choice for step_ in steps})
        wanted = labels[self._turn % len(labels)]
        self._turn += 1
        for index, step_ in enumerate(steps):
            if step_.choice == wanted:
                return index
        return 0


class RandomScheduler:
    """Uniformly random scheduling with a private seeded RNG."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def __call__(self, config: Config, steps: Sequence[Step]) -> int:
        return self._rng.randrange(len(steps))


class FixedScheduler:
    """Replay a fixed sequence of choice indices (pad with 0)."""

    def __init__(self, choices: Sequence[int]) -> None:
        self._choices = list(choices)
        self._position = 0

    def __call__(self, config: Config, steps: Sequence[Step]) -> int:
        if self._position < len(self._choices):
            index = self._choices[self._position] % len(steps)
        else:
            index = 0
        self._position += 1
        return index


def left_first(config: Config, steps: Sequence[Step]) -> int:
    """Always pick the first (leftmost) enabled step."""
    return 0


def enumerate_executions(
    initial: Config,
    max_steps: int = 10_000,
    max_executions: Optional[int] = None,
) -> Iterator[Config | str]:
    """Depth-first enumeration of all terminating executions.

    Yields each reachable final :class:`Config` (one per interleaving; the
    same final state may be yielded multiple times) or the string
    ``"abort"``.  Raises RuntimeError if an execution exceeds ``max_steps``.
    """
    yielded = 0
    stack: list[tuple[Config, int]] = [(initial, 0)]
    while stack:
        config, depth = stack.pop()
        if depth > max_steps:
            raise RuntimeError("execution exceeded max_steps (possible divergence)")
        if config.is_final():
            yield config
            yielded += 1
            if max_executions is not None and yielded >= max_executions:
                return
            continue
        successors = step(config)
        for successor in reversed(successors):
            if successor.aborted():
                yield ABORT
                yielded += 1
                if max_executions is not None and yielded >= max_executions:
                    return
            else:
                stack.append((successor.result, depth + 1))
