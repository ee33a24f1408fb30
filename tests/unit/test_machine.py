"""Unit tests for the flat machine's lowering and distinct-state search.

The differential suite (``tests/property/test_machine_conformance.py``)
pins the machine to the Fig. 9 reference on whole programs; these tests
pin the search's edge cases: divergence, aborts, deadlocks, the budget
and deduplication.
"""

import pytest

from repro.fuzz.oracle import _exhaustive_within_budget
from repro.lang import machine as machine_module
from repro.lang.ast import Skip
from repro.lang.interpreter import AbortError
from repro.lang.machine import FINAL, StateBudgetExceeded, explore, lower
from repro.lang.parser import parse_program
from repro.lang.scheduler import enumerate_executions
from repro.lang.semantics import ABORT, Config, State
from repro.security.noninterference import all_outputs, channel_observer

SPIN = "f := 0; { while (f == 0) {} } || { f := 1 }"
#: Aborts only when the load runs before the allocation.
RACY_ABORT = "{ c := alloc(5) } || { v := [1] }"


def paths(source, inputs=None, **kwargs):
    return list(enumerate_executions(Config(parse_program(source), State.make(inputs)), **kwargs))


class TestDivergence:
    def test_reachable_cycle_raises(self):
        with pytest.raises(RuntimeError, match="revisits"):
            explore(parse_program(SPIN))

    def test_path_enumerator_raises_too(self):
        with pytest.raises(RuntimeError, match="max_steps"):
            paths(SPIN, max_steps=500)

    def test_cycle_is_not_dropped_by_callers(self):
        program = parse_program(SPIN)
        with pytest.raises(RuntimeError):
            all_outputs(program, {})
        with pytest.raises(RuntimeError):
            _exhaustive_within_budget(program, [[{}]], 10_000, channel_observer(None))

    def test_long_acyclic_path_hits_max_steps(self):
        program = parse_program("i := 0; while (i < 100) { i := i + 1 }")
        with pytest.raises(RuntimeError, match="max_steps"):
            explore(program, max_steps=50)
        assert len(explore(program, max_steps=1_000).finals) == 1


class TestAborts:
    def test_aborting_interleaving_is_reported(self):
        reached = explore(parse_program(RACY_ABORT))
        assert reached.aborted
        assert ABORT in paths(RACY_ABORT)

    def test_all_outputs_raises_runtime_error(self):
        with pytest.raises(RuntimeError, match="program aborts on inputs"):
            all_outputs(parse_program(RACY_ABORT), {})

    def test_oracle_raises_abort_error(self):
        with pytest.raises(AbortError, match="program aborts on inputs"):
            _exhaustive_within_budget(
                parse_program(RACY_ABORT), [[{}]], 10_000, channel_observer(None)
            )


class TestDeadlocks:
    def test_all_blocked_configuration_is_dropped(self):
        source = "{ atomic when (f == 1) { x := 1 } } || { f := 2 }"
        reached = explore(parse_program(source))
        assert reached.finals == () and not reached.aborted
        assert paths(source) == []

    def test_only_deadlocking_interleavings_are_dropped(self):
        source = "{ atomic when (f == 1) { print(1) } } || { f := 1; f := 2 }"
        reached = explore(parse_program(source))
        assert set(reached.finals) == {config.state for config in paths(source)}
        assert [final.output for final in reached.finals] == [(1,)]


class TestBudget:
    PROGRAM = "{ x := 1; y := 2 } || { z := 3; print(z) }"

    def test_trips_at_exactly_budget_plus_one(self):
        program = parse_program(self.PROGRAM)
        full = explore(program)
        assert explore(program, budget=full.configs) == full
        with pytest.raises(StateBudgetExceeded):
            explore(program, budget=full.configs - 1)

    def test_zero_budget_trips_on_the_initial_configuration(self):
        with pytest.raises(StateBudgetExceeded):
            explore(parse_program("skip"), budget=0)
        assert explore(parse_program("skip"), budget=1).configs == 1

    def test_oracle_budget_spans_all_variants(self):
        program = parse_program(self.PROGRAM)
        variants = [[{"h": 0}, {"h": 1}]]
        total = sum(explore(program, inputs).configs for inputs in variants[0])
        observe = channel_observer(None)
        assert _exhaustive_within_budget(program, variants, total, observe).secure
        assert _exhaustive_within_budget(program, variants, total - 1, observe) is None


class TestDeduplication:
    def test_commuting_threads_yield_one_final(self):
        source = "{ a := 1 } || { b := 2 }"
        reached = explore(parse_program(source))
        assert len(reached.finals) == 1
        assert reached.finals[0].store == (("a", 1), ("b", 2))
        assert len(paths(source)) == 2

    def test_finals_are_reference_states_with_extra_inputs(self):
        reached = explore(parse_program("x := y + 1"), {"y": 1, "unused": 7})
        assert reached.finals == (State.make({"x": 2, "y": 1, "unused": 7}),)

    def test_equal_residuals_share_a_program_counter(self):
        machine = lower(parse_program("if (h > 0) { print(1) } else { print(1) }"))
        # FINAL, the if, and one print shared by both branches
        assert len(machine.code) == 3
        assert machine.residuals[FINAL][0] == Skip()


class TestCache:
    def test_same_program_object_is_lowered_once(self):
        program = parse_program("x := 1")
        assert lower(program) is lower(program)

    def test_cache_is_bounded(self):
        programs = [parse_program(f"x := {index}") for index in range(machine_module.CACHE_SIZE + 10)]
        for program in programs:
            lower(program)
        assert len(machine_module._cache) == machine_module.CACHE_SIZE
        assert lower(programs[-1]) is lower(programs[-1])

    def test_machines_of_dropped_programs_are_released(self):
        machine_module._cache.clear()
        lower(parse_program("x := 1; y := 2"))  # dropped right away
        kept = parse_program("x := 3; y := 4")
        lower(kept)
        assert [ref() for ref, _ in machine_module._cache.values()] == [kept]
