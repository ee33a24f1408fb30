"""Execution driver: run a program under a scheduler to completion.

Runs on the flat machine (:mod:`repro.lang.machine`), which takes the
same steps as the Fig. 9 reference :func:`repro.lang.semantics.step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .ast import Command
from .machine import FINAL, lower
from .scheduler import Scheduler, left_first
from .semantics import ABORT, State
from .semantics import step  # noqa: F401  (the reference; perfbench/tracer.py counts calls here)


class AbortError(Exception):
    """The program reached the ``abort`` configuration (memory fault)."""


@dataclass(frozen=True)
class RunResult:
    """Outcome of a terminated execution."""

    state: State
    steps_taken: int
    schedule: tuple[str, ...]

    @property
    def store(self) -> dict:
        return self.state.store_dict()

    @property
    def heap(self) -> dict:
        return self.state.heap_dict()

    @property
    def output(self) -> tuple:
        return self.state.output


def run(
    program: Command,
    inputs: Optional[dict[str, Any]] = None,
    heap: Optional[dict[int, Any]] = None,
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 1_000_000,
) -> RunResult:
    """Run ``program`` from the given inputs under ``scheduler``.

    Raises :class:`AbortError` on a memory fault and RuntimeError if the
    step budget is exhausted (likely divergence).
    """
    scheduler = scheduler or left_first
    machine = lower(program)
    config, extras = machine.start(inputs, heap)
    schedule: list[str] = []
    for count in range(max_steps):
        if config[0] == FINAL:
            return RunResult(machine.state(config, extras), count, tuple(schedule))
        successors = machine.successors(config)
        if not successors:
            raise RuntimeError(
                f"deadlock after {count} steps: all threads blocked on atomic guards"
            )
        index = scheduler(config, successors)
        chosen = successors[index]
        if chosen.result is ABORT:
            raise AbortError(f"program aborted after {count} steps (choice {chosen.choice!r})")
        schedule.append(chosen.choice)
        config = chosen.result
    raise RuntimeError(f"program did not terminate within {max_steps} steps")
