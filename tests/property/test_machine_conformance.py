"""Machine conformance suite: the flat machine vs the Fig. 9 reference.

:mod:`repro.lang.machine` runs every concrete execution — the
interpreter's scheduled runs and the distinct-state search behind the
exhaustive noninterference checks.  This suite pins it to the retained
reference, :func:`repro.lang.semantics.step` and the path enumerator
:func:`repro.lang.scheduler.enumerate_executions`, on generated programs
(several :mod:`repro.fuzz.gen` campaigns), the 29 corpus programs, the
programs embedded in ``examples/``, and random small programs.

Checked contracts, per program and input:

* **successor agreement** — at every reachable configuration (up to a
  cap), the machine's successor list, decoded, equals ``step``'s: same
  order, choice labels, ``ABORT`` positions and blocked ``when`` guards;
  and distinct machine configurations decode to distinct reference
  configurations, so visited-set search merges exactly the reference's
  equal states;
* **run agreement** — :func:`repro.lang.interpreter.run` returns the
  same :class:`RunResult` as a run driven by ``step`` under
  ``left_first``, round-robin, seeded random and fixed schedulers, or
  raises the same error (``AbortError``, deadlock, step budget);
* **final agreement** — wherever path enumeration completes, the set of
  finals :func:`repro.lang.machine.explore` finds equals the set of
  ``enumerate_executions`` finals, and an abort or a divergence is
  reported by both; and wherever a visited-set search over ``step``
  completes, ``explore`` visits exactly as many configurations.

The deterministic leg (``TestFixedSeedConformance``) runs in CI as its
own fail-fast step before tier-1.
"""

import itertools
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import collect_targets
from repro.casestudies import ALL_CASES
from repro.fuzz.gen import generate_case
from repro.lang.ast import (
    Alloc,
    Assign,
    Atomic,
    BinOp,
    Fork,
    If,
    Join,
    Lit,
    Load,
    Node,
    Par,
    Print,
    Seq,
    Skip,
    Store,
    Var,
    While,
)
from repro.lang import scheduler as scheduler_module
from repro.lang.interpreter import AbortError, RunResult, run
from repro.lang.machine import explore, lower
from repro.lang.scheduler import (
    FixedScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    enumerate_executions,
    left_first,
)
from repro.lang.semantics import ABORT, Config, State, step

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Reachable configurations checked per program and input.
WALK_CAP = 600
#: Path enumerations with more finals, or more expanded configurations,
#: than these are not compared.
PATH_CAP = 300
STEP_CAP = 5_000
#: Reference distinct-state searches larger than this are not compared.
STATE_CAP = 3000


# -- the reference drivers ------------------------------------------------------


def reference_run(program, inputs=None, heap=None, scheduler=None, max_steps=1_000_000):
    """The interpreter loop over ``semantics.step``."""
    scheduler = scheduler or left_first
    config = Config(program, State.make(inputs, heap))
    schedule = []
    for count in range(max_steps):
        if config.is_final():
            return RunResult(config.state, count, tuple(schedule))
        successors = step(config)
        if not successors:
            raise RuntimeError(
                f"deadlock after {count} steps: all threads blocked on atomic guards"
            )
        chosen = successors[scheduler(config, successors)]
        if chosen.result == ABORT:
            raise AbortError(f"program aborted after {count} steps (choice {chosen.choice!r})")
        schedule.append(chosen.choice)
        config = chosen.result
    raise RuntimeError(f"program did not terminate within {max_steps} steps")


def outcome(function, *args, **kwargs):
    """A result, or the raised error's type and message."""
    try:
        return function(*args, **kwargs)
    except Exception as error:  # noqa: BLE001 - errors must agree too
        return type(error).__name__, str(error)


# -- the three checks -----------------------------------------------------------


def assert_successors_agree(program, inputs, cap=WALK_CAP):
    """Breadth-first over the machine's reachable configurations."""
    machine = lower(program)
    start, extras = machine.start(inputs)
    assert machine.reference(start, extras) == Config(program, State.make(inputs))
    seen = {start}
    frontier = [start]
    decoded = set()
    while frontier and len(seen) < cap:
        config = frontier.pop(0)
        reference = machine.reference(config, extras)
        decoded.add(reference)
        expected = outcome(lambda: [(s.choice, s.result) for s in step(reference)])
        moves = outcome(machine.successors, config)
        if isinstance(moves, tuple):  # both must raise the same error
            assert moves == expected, f"at {reference.command}"
            continue
        actual = [
            (move.choice, ABORT if move.aborted() else machine.reference(move.result, extras))
            for move in moves
        ]
        assert actual == expected, f"at {reference.command}"
        for move in moves:
            if not move.aborted() and move.result not in seen:
                seen.add(move.result)
                frontier.append(move.result)
    # Distinct machine configurations are distinct reference ones.
    assert len(decoded) == len(seen) - len(frontier)


SCHEDULERS = (
    ("left_first", lambda: left_first),
    ("round_robin", RoundRobinScheduler),
    ("random0", lambda: RandomScheduler(0)),
    ("random7", lambda: RandomScheduler(7)),
    ("random42", lambda: RandomScheduler(42)),
    ("fixed", lambda: FixedScheduler([1, 0, 1, 1, 0, 2, 1, 0, 0, 1, 3])),
)


def assert_runs_agree(program, inputs, max_steps=1_000_000):
    for name, make in SCHEDULERS:
        expected = outcome(reference_run, program, dict(inputs), scheduler=make(), max_steps=max_steps)
        actual = outcome(run, program, dict(inputs), scheduler=make(), max_steps=max_steps)
        assert actual == expected, name


class _PathCapExceeded(Exception):
    pass


def _failure(error):
    """How a search failed: ``"diverges"`` for the step budget or a cycle
    (the two report it in different words), else the error."""
    if isinstance(error, RuntimeError):
        return "diverges"
    return type(error).__name__, str(error)


def path_finals(program, inputs):
    """The path enumerator's final states, ``ABORT``, a :func:`_failure`,
    or ``None`` past :data:`PATH_CAP` finals or :data:`STEP_CAP` expansions
    (deadlocked paths yield nothing, so only the latter bounds them)."""
    expansions = itertools.count()

    def counted_step(config):
        if next(expansions) == STEP_CAP:
            raise _PathCapExceeded
        return step(config)

    finals = set()
    scheduler_module.step = counted_step
    try:
        paths = enumerate_executions(Config(program, State.make(inputs)), max_steps=2_000)
        for count, final in enumerate(paths):
            if final == ABORT:
                return ABORT
            if count == PATH_CAP:
                return None
            finals.add(final.state)
    except _PathCapExceeded:
        return None
    except Exception as error:  # noqa: BLE001 - errors must agree too
        return _failure(error)
    finally:
        scheduler_module.step = step
    return finals


def assert_finals_agree(program, inputs):
    """Compare with path enumeration where it completes; whether it did."""
    expected = path_finals(program, inputs)
    if expected is None:
        return False
    try:
        reached = explore(program, inputs, max_steps=2_000)
    except Exception as error:  # noqa: BLE001
        actual = _failure(error)
    else:
        assert len(reached.finals) == len(set(reached.finals))
        actual = ABORT if reached.aborted else set(reached.finals)
    assert actual == expected
    return True


def reference_states(program, inputs):
    """Distinct configurations reachable under ``step`` and the final
    states among them, or ``None`` past :data:`STATE_CAP`, on abort or on
    an error (the other checks compare those)."""
    start = Config(program, State.make(inputs))
    seen = {start}
    pending = [start]
    while pending:
        config = pending.pop()
        try:
            successors = step(config)
        except Exception:  # noqa: BLE001
            return None
        for successor in successors:
            if successor.aborted():
                return None
            if successor.result not in seen:
                seen.add(successor.result)
                pending.append(successor.result)
                if len(seen) > STATE_CAP:
                    return None
    return len(seen), {config.state for config in seen if config.is_final()}


def assert_state_counts_agree(program, inputs):
    expected = reference_states(program, inputs)
    if expected is None:
        return
    try:
        reached = explore(program, inputs, max_steps=2_000)
    except RuntimeError:
        return  # a divergent interleaving; compared by assert_finals_agree
    assert (reached.configs, set(reached.finals)) == expected


def check_all(program, inputs, max_steps=1_000_000):
    assert_successors_agree(program, inputs)
    assert_runs_agree(program, inputs, max_steps=max_steps)
    assert_state_counts_agree(program, inputs)
    return assert_finals_agree(program, inputs)


# -- program sources ---------------------------------------------------------------


def _generated():
    for seed in (20240808, 0, 1, 3):
        for index in range(6):
            case = generate_case(seed, index)
            yield pytest.param(case.program, case.instances()[0][0], id=f"{seed}-{index}")


def _corpus():
    for case in ALL_CASES:
        groups = case.instances() if case.instances is not None else [[{}]]
        yield pytest.param(case.program(), groups[0][0], id=case.name)


def _dynamic_threads(program):
    """Whether ``program`` forks or joins; such programs run on
    :mod:`repro.lang.threads`, not on the Fig. 9 semantics."""
    pending = [program]
    while pending:
        node = pending.pop()
        if isinstance(node, (Fork, Join)):
            return True
        for f in fields(node):
            value = getattr(node, f.name)
            children = value if isinstance(value, tuple) else (value,)
            pending.extend(child for child in children if isinstance(child, Node))
    return False


def _examples():
    for target in collect_targets([EXAMPLES]):
        threaded = target.threaded
        if threaded is None or threaded.procedures or _dynamic_threads(threaded.main):
            continue
        yield pytest.param(threaded.main, {}, id=target.source)


class TestFixedSeedConformance:
    """Deterministic differential on generated, corpus and example programs."""

    @pytest.mark.parametrize("program, inputs", list(_generated()))
    def test_generated_programs(self, program, inputs):
        check_all(program, inputs)

    @pytest.mark.parametrize("program, inputs", list(_corpus()))
    def test_corpus_programs(self, program, inputs):
        check_all(program, inputs)

    @pytest.mark.parametrize("program, inputs", list(_examples()))
    def test_example_programs(self, program, inputs):
        check_all(program, inputs)

    def test_examples_contribute_programs(self):
        assert len(list(_examples())) >= 3

    def test_final_sets_are_compared_on_generated_programs(self):
        """Path enumeration completes on enough cases that the final-set
        check is not vacuous."""
        compared = sum(
            assert_finals_agree(param.values[0], param.values[1]) for param in _generated()
        )
        assert compared >= 4

    @pytest.mark.parametrize(
        "source",
        [
            "x := 1; { atomic when (x == 2) { y := 1 } } || { skip }",  # deadlock
            "c := alloc(0); [c + 1] := 5",  # abort
            "{ c := alloc(1) } || { v := [1] }",  # abort in one interleaving
            "while (true) { x := x + 1 }",  # step budget
        ],
    )
    def test_error_runs_agree(self, source):
        from repro.lang.parser import parse_program

        program = parse_program(source)
        assert_successors_agree(program, {}, cap=200)
        assert_runs_agree(program, {}, max_steps=300)


# -- random small programs -----------------------------------------------------------

SHARED = ("f", "g")
LOCAL = ("x", "y")
values = st.integers(-2, 3).map(Lit)


@st.composite
def expressions(draw, names):
    if draw(st.booleans()):
        return draw(values)
    left = Var(draw(st.sampled_from(names)))
    if draw(st.booleans()):
        return left
    op = draw(st.sampled_from(["+", "-", "==", "<", "/", "%"]))
    return BinOp(op, left, draw(values))


@st.composite
def statements(draw, names, depth):
    kinds = ["assign", "print", "store", "load", "atomic"]
    if depth > 0:
        kinds += ["if", "while", "seq", "par"]
    kind = draw(st.sampled_from(kinds))
    target = draw(st.sampled_from(names))
    if kind == "assign":
        return Assign(target, draw(expressions(names)))
    if kind == "print":
        return Print(draw(expressions(names)))
    if kind == "store":  # cell 1 exists; address 2 aborts
        return Store(Lit(draw(st.sampled_from([1, 1, 2]))), draw(expressions(names)))
    if kind == "load":
        return Load(target, Lit(draw(st.sampled_from([1, 1, 2]))))
    if kind == "atomic":
        guard = draw(st.one_of(st.none(), expressions(names)))
        body = draw(statements(names, 0))
        return Atomic(body, when=guard)
    if kind == "if":
        return If(
            draw(expressions(names)),
            draw(statements(names, depth - 1)),
            draw(st.one_of(st.just(Skip()), statements(names, depth - 1))),
        )
    if kind == "while":  # bounded: a private counter
        counter = f"i{depth}"
        body = Seq(draw(statements(names, depth - 1)), Assign(counter, BinOp("+", Var(counter), Lit(1))))
        return Seq(Assign(counter, Lit(0)), While(BinOp("<", Var(counter), Lit(2)), body))
    if kind == "seq":
        return Seq(draw(statements(names, depth - 1)), draw(statements(names, depth - 1)))
    return Par(draw(statements(names, depth - 1)), draw(statements(names, depth - 1)))


@st.composite
def concurrent_programs(draw):
    names = SHARED + LOCAL
    threads = [draw(statements(names, 2)) for _ in range(draw(st.integers(1, 2)))]
    program = threads[-1]
    for thread in reversed(threads[:-1]):
        program = Par(thread, program)
    return Seq(Alloc("c", Lit(0)), program)


inputs_strategy = st.fixed_dictionaries({"f": st.integers(0, 2), "x": st.integers(0, 2)})


@given(concurrent_programs(), inputs_strategy)
@settings(max_examples=40, deadline=None)
def test_random_programs_conform(program, inputs):
    check_all(program, inputs, max_steps=2_000)


@given(concurrent_programs(), inputs_strategy, st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_random_schedules_replay(program, inputs, seed):
    expected = outcome(reference_run, program, dict(inputs), scheduler=RandomScheduler(seed), max_steps=2_000)
    actual = outcome(run, program, dict(inputs), scheduler=RandomScheduler(seed), max_steps=2_000)
    assert actual == expected
