"""The execution engine: a flat program-counter machine for Fig. 9.

:mod:`repro.lang.semantics` states the small-step semantics as a rewrite
of the command AST, rebuilding ``Seq``/``Par`` nodes and sorted store
tuples on every step.  It stays as the reference; this module runs every
concrete execution.  :func:`lower` translates a program *once* into a
flat instruction array, where each instruction is exactly one Fig. 9
step, the ``Seq``-skip, ``If``, ``While``-unfold and ``Par``-join steps
included, so step counts and schedules match the reference one for one.

A *residual* command of a sequential thread has the shape
``(((c ; k1) ; k2) ; ...)``: the current command ``c`` and a stack of
continuations.  Each distinct residual, up to AST equality, gets one
program counter.  A parallel residual ``Par(l, r)`` under a stack is the
control ``(par, left, right)``: ``par`` names the stack to join into,
``left`` and ``right`` are the two threads' controls.  A configuration is
the flat hashable tuple::

    (control, store slots, heap, output, next_location)

``store slots`` hold one value per program variable in sorted name order,
:data:`UNSET` for a variable never written; ``heap``, ``output`` and
``next_location`` are exactly :class:`~repro.lang.semantics.State`'s.
Equal configurations are equal reference configurations, so visited-set
search over them merges exactly the states the reference would.

:meth:`Machine.successors` returns the successors in the reference's
order with its ``L``/``R`` choice labels, aborts and blocked ``when``
guards; :meth:`Machine.reference` maps a configuration back to its
:class:`~repro.lang.semantics.Config` for differential testing.
:func:`explore` is the distinct-state search that replaces path
enumeration wherever a complete set of outcomes is needed.
"""

from __future__ import annotations

import functools
import operator
import threading
import weakref
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple, Optional

from .ast import (
    DEFAULT_CHANNEL,
    Alloc,
    Assign,
    Atomic,
    BinOp,
    Call,
    Command,
    Expr,
    If,
    Lit,
    Load,
    Node,
    Par,
    Print,
    Seq,
    Share,
    Skip,
    Store,
    UnOp,
    Unshare,
    Var,
    While,
)
from .semantics import _ATOMIC_FUEL, ABORT, DEFAULT_VALUE, Config, State, _truthy, evaluate
from .values import PURE_FUNCTIONS


class _Unset:
    """Marker for a store slot whose variable was never written."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNSET"


UNSET = _Unset()

#: The control of a finished thread: ``skip`` with nothing left to run.
FINAL = 0

Control = Any  # int | tuple (par, left, right)


class Move(NamedTuple):
    """One successor: the scheduling choice and the resulting
    configuration, or :data:`~repro.lang.semantics.ABORT`.  Schedulers
    read ``choice`` exactly as on :class:`~repro.lang.semantics.Step`."""

    choice: str
    result: Any

    def aborted(self) -> bool:
        return self.result is ABORT


_new_move = tuple.__new__  # Move from a (choice, result) pair, skipping __new__'s arg parsing


# -- expressions --------------------------------------------------------------

Evaluator = Callable[[tuple, Optional[dict]], Any]

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": lambda left, right: left // right if right != 0 else DEFAULT_VALUE,
    "%": lambda left, right: left % right if right != 0 else DEFAULT_VALUE,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _reader(index: int) -> Evaluator:
    """The evaluator of the variable in slot ``index``."""

    def var(s: tuple, h: Optional[dict]) -> Any:
        value = s[index]
        return DEFAULT_VALUE if value is UNSET else value

    return var


def _compile_expr(expr: Expr, readers: dict, names: tuple) -> Evaluator:
    """``expr`` as a closure ``(slots, heap) -> value``.

    ``readers`` maps each variable to its :func:`_reader`, ``names`` are
    the slots' variables.  ``heap`` is a dict only for ``when`` guards, as in
    :func:`~repro.lang.semantics.evaluate`.  Every shape the closures do
    not cover (unknown operators and functions, a malformed ``deref``)
    falls back to the reference evaluator, so it fails, or succeeds,
    exactly as the reference does and only when evaluated.
    """
    if isinstance(expr, Lit):
        value = expr.value
        return lambda s, h: value
    if isinstance(expr, Var):
        return readers[expr.name]
    if isinstance(expr, UnOp) and expr.op in ("-", "!"):
        operand = _compile_expr(expr.operand, readers, names)
        if expr.op == "-":
            return lambda s, h: -operand(s, h)
        return lambda s, h: not _truthy(operand(s, h))
    if isinstance(expr, BinOp) and (expr.op in _ARITHMETIC or expr.op in ("&&", "||")):
        left = _compile_expr(expr.left, readers, names)
        right = _compile_expr(expr.right, readers, names)
        if expr.op == "&&":
            return lambda s, h: _truthy(left(s, h)) and _truthy(right(s, h))
        if expr.op == "||":
            return lambda s, h: _truthy(left(s, h)) or _truthy(right(s, h))
        function = _ARITHMETIC[expr.op]
        return lambda s, h: function(left(s, h), right(s, h))
    if isinstance(expr, Call) and expr.function == "deref" and len(expr.args) == 1:
        address = _compile_expr(expr.args[0], readers, names)

        def deref(s: tuple, h: Optional[dict]) -> Any:
            if h is None:
                return _reference_eval(expr, s, h, names)
            return h.get(address(s, h), DEFAULT_VALUE)

        return deref
    if isinstance(expr, Call) and expr.function != "deref" and expr.function in PURE_FUNCTIONS:
        function = PURE_FUNCTIONS[expr.function]
        args = tuple(_compile_expr(arg, readers, names) for arg in expr.args)
        if len(args) == 1:
            (only,) = args
            return lambda s, h: function(only(s, h))
        if len(args) == 2:
            first, second = args
            return lambda s, h: function(first(s, h), second(s, h))
        return lambda s, h: function(*(arg(s, h) for arg in args))
    return lambda s, h: _reference_eval(expr, s, h, names)


def _reference_eval(expr: Any, s: tuple, h: Optional[dict], names: tuple) -> Any:
    store = {name: value for name, value in zip(names, s) if value is not UNSET}
    return evaluate(expr, store, h)


def _compile_test(expr: Expr, readers: dict, names: tuple) -> Evaluator:
    """A condition: ``expr``'s value through the reference's truth test."""
    value = _compile_expr(expr, readers, names)

    def test(s: tuple, h: Optional[dict]) -> bool:
        result = value(s, h)
        if result is True or result is False:
            return result
        return _truthy(result)

    return test


# -- lowering -----------------------------------------------------------------


@functools.cache
def _compared_fields(node_type: type) -> tuple:
    return tuple(f.name for f in fields(node_type) if f.compare)


def _field_values(node: Node) -> list:
    """``node``'s fields that take part in AST equality (not ``pos``)."""
    return [getattr(node, name) for name in _compared_fields(type(node))]


def _children(values: list) -> list:
    return [
        child
        for value in values
        for child in (value if isinstance(value, tuple) else (value,))
        if isinstance(child, Node)
    ]


def _variables(program: Command) -> tuple:
    """Every variable ``program`` reads or writes, sorted."""
    found: set = set()
    pending: list = [program]
    while pending:
        node = pending.pop()
        if isinstance(node, Var):
            found.add(node.name)
        target = getattr(node, "target", None)
        if isinstance(target, str):
            found.add(target)
        pending.extend(_children(_field_values(node)))
    return tuple(sorted(found))


class _Canon:
    """Structural ids: two AST nodes get the same id iff they are equal.

    Program counters are keyed by these ids, so equal residual commands
    share a counter without hashing whole subtrees at every lookup.
    """

    def __init__(self) -> None:
        self._ids: dict = {}  # id(node) -> (node, canonical id); holds the node
        self._table: dict = {}  # structural key -> canonical id

    def __call__(self, root: Node) -> int:
        ids = self._ids
        known = ids.get(id(root))
        if known is not None:
            return known[1]
        pending = [root]
        while pending:
            node = pending[-1]
            if id(node) in ids:
                pending.pop()
                continue
            values = _field_values(node)
            unknown = [child for child in _children(values) if id(child) not in ids]
            if unknown:
                pending.extend(unknown)
                continue
            pending.pop()
            key = (type(node),) + tuple(self._part(value) for value in values)
            ids[id(node)] = (node, self._table.setdefault(key, len(self._table)))
        return ids[id(root)][1]

    def _part(self, value: Any) -> Any:
        if isinstance(value, tuple):
            return tuple(self._part(item) for item in value)
        if isinstance(value, Node):
            return (Node, self._ids[id(value)][1])
        return value


_SKIP = Skip()


class Machine:
    """One lowered program.  Built by :func:`lower`; immutable afterwards."""

    def __init__(self, program: Command) -> None:
        self.names: tuple = _variables(program)
        self.slot: dict = {name: index for index, name in enumerate(self.names)}
        self._readers = {name: _reader(index) for name, index in self.slot.items()}
        #: pc -> instruction ``(slots, heap, output, next_location) ->
        #: configuration | ABORT | None`` (``None``: final or blocked).
        self.code: list = []
        #: pc -> (current command, continuation stack), for decoding.
        self.residuals: list = []
        #: par -> (control after the join, continuation stack).
        self.joins: list = []
        self._canon = _Canon()
        self._pcs: dict = {}
        self._pars: dict = {}
        self._pending: list = []
        self._pc(_SKIP, ())  # FINAL
        self.entry: Control = self._control(program, ())
        while self._pending:
            pc = self._pending.pop()
            self.code[pc] = self._instruction(*self.residuals[pc])
        del self._canon, self._pcs, self._pars, self._pending, self._readers

    # -- lowering ----------------------------------------------------------

    def _control(self, command: Command, stack: tuple) -> Control:
        """The control of the residual ``command`` under ``stack``."""
        while isinstance(command, Seq):
            stack = (command.second,) + stack
            command = command.first
        if isinstance(command, Par):
            key = tuple(self._canon(node) for node in stack)
            par = self._pars.get(key)
            if par is None:
                par = self._pars[key] = len(self.joins)
                self.joins.append((self._control(_SKIP, stack), stack))
            return (par, self._control(command.left, ()), self._control(command.right, ()))
        return self._pc(command, stack)

    def _pc(self, command: Command, stack: tuple) -> int:
        key = (self._canon(command),) + tuple(self._canon(node) for node in stack)
        pc = self._pcs.get(key)
        if pc is None:
            pc = self._pcs[key] = len(self.code)
            self.code.append(None)
            self.residuals.append((command, stack))
            self._pending.append(pc)
        return pc

    def _instruction(self, cmd: Command, stack: tuple) -> Callable:
        slot, readers, names = self.slot, self._readers, self.names
        if isinstance(cmd, Skip):
            if not stack:
                return _blocked
            return _goto(self._control(stack[0], stack[1:]))
        if isinstance(cmd, If):
            test = _compile_test(cmd.condition, readers, names)
            then_branch = self._control(cmd.then_branch, stack)
            else_branch = self._control(cmd.else_branch, stack)

            def branch(s: tuple, h: tuple, o: tuple, n: int) -> tuple:
                return (then_branch if test(s, None) else else_branch, s, h, o, n)

            return branch
        if isinstance(cmd, While):
            unfolded = If(cmd.condition, Seq(cmd.body, cmd), _SKIP)
            return _goto(self._control(unfolded, stack))
        done = self._control(_SKIP, stack)
        if isinstance(cmd, (Share, Unshare)):
            return _goto(done)
        if isinstance(cmd, Assign):
            value = _compile_expr(cmd.expr, readers, names)
            index = slot[cmd.target]
            after = index + 1

            def assign(s: tuple, h: tuple, o: tuple, n: int) -> tuple:
                return (done, s[:index] + (value(s, None),) + s[after:], h, o, n)

            return assign
        if isinstance(cmd, Load):
            address = _compile_expr(cmd.address, readers, names)
            index = slot[cmd.target]
            after = index + 1

            def load(s: tuple, h: tuple, o: tuple, n: int) -> Any:
                cells = dict(h)
                where = address(s, None)
                if where not in cells:
                    return ABORT
                return (done, s[:index] + (cells[where],) + s[after:], h, o, n)

            return load
        if isinstance(cmd, Store):
            address = _compile_expr(cmd.address, readers, names)
            value = _compile_expr(cmd.expr, readers, names)

            def store(s: tuple, h: tuple, o: tuple, n: int) -> Any:
                cells = dict(h)
                where = address(s, None)
                if where not in cells:
                    return ABORT
                cells[where] = value(s, None)
                # Overwriting a key keeps the dict's (sorted) order.
                return (done, s, tuple(cells.items()), o, n)

            return store
        if isinstance(cmd, Alloc):
            value = _compile_expr(cmd.expr, readers, names)
            index = slot[cmd.target]
            after = index + 1

            def alloc(s: tuple, h: tuple, o: tuple, n: int) -> tuple:
                cells = dict(h)
                cells[n] = value(s, None)
                heap = tuple(sorted(cells.items()))
                return (done, s[:index] + (n,) + s[after:], heap, o, n + 1)

            return alloc
        if isinstance(cmd, Print):
            value = _compile_expr(cmd.expr, readers, names)
            channel = cmd.channel
            if channel == DEFAULT_CHANNEL:
                return lambda s, h, o, n: (done, s, h, o + (value(s, None),), n)
            return lambda s, h, o, n: (done, s, h, o + ((channel, value(s, None)),), n)
        if isinstance(cmd, Atomic):
            return self._atomic(cmd, done)

        def unsupported(s: tuple, h: tuple, o: tuple, n: int) -> Any:
            raise TypeError(f"not a command: {cmd!r}")

        return unsupported

    def _atomic(self, cmd: Atomic, done: Control) -> Callable:
        """Rule Atom: run the body to completion in one step, resolving any
        parallelism in it left-first, as the reference does."""
        guard = None
        if cmd.when is not None:
            guard = _compile_test(cmd.when, self._readers, self.names)
        body = self._control(cmd.body, ())
        # A weak reference: a strong one would make the machine a reference
        # cycle, which outlives its eviction from the cache until a full
        # garbage collection.  Whoever runs this instruction holds the machine.
        machine = weakref.ref(self)

        def atomic(s: tuple, h: tuple, o: tuple, n: int) -> Any:
            if guard is not None and not guard(s, dict(h)):
                return None  # blocked: this thread cannot step (App. D)
            lowered = machine()
            code, moves = lowered.code, lowered._moves
            control = body
            for _ in range(_ATOMIC_FUEL):
                if control == FINAL:
                    return (done, s, h, o, n)
                if control.__class__ is int:
                    result = code[control](s, h, o, n)
                    if result is None:
                        # The reference takes successors[0] of an empty list.
                        raise IndexError("list index out of range")
                else:
                    result = moves(control, s, h, o, n)[0][1]
                if result is ABORT:
                    return ABORT
                control, s, h, o, n = result
            raise RuntimeError("atomic block exceeded fuel (possible divergence)")

        return atomic

    # -- running -----------------------------------------------------------

    def start(self, inputs: Optional[dict] = None, heap: Optional[dict] = None) -> tuple:
        """``(configuration, extras)`` for ``State.make(inputs, heap)``.

        ``extras`` are the sorted input items the program never names; no
        step can touch them, so they stay out of the configuration and
        only rejoin the store in :meth:`state`.
        """
        inputs = inputs or {}
        heap = heap or {}
        slots = tuple(inputs.get(name, UNSET) for name in self.names)
        extras = tuple(sorted(item for item in inputs.items() if item[0] not in self.slot))
        config = (self.entry, slots, tuple(sorted(heap.items())), (), max(heap, default=0) + 1)
        return config, extras

    def state(self, config: tuple, extras: tuple = ()) -> State:
        """The reference :class:`State` of ``config``."""
        _, slots, heap, output, next_location = config
        store = tuple((name, value) for name, value in zip(self.names, slots) if value is not UNSET)
        if extras:
            store = tuple(sorted(store + extras))
        return State(store=store, heap=heap, output=output, next_location=next_location)

    def successors(self, config: tuple) -> list:
        """All one-step successors of ``config`` as :class:`Move` s, in the
        order :func:`repro.lang.semantics.step` lists them."""
        control, s, h, o, n = config
        return [_new_move(Move, move) for move in self._moves(control, s, h, o, n)]

    def _moves(self, control: Control, s: tuple, h: tuple, o: tuple, n: int) -> list:
        """``[(choice, configuration | ABORT)]`` for one control."""
        code = self.code
        if control.__class__ is int:
            result = code[control](s, h, o, n)
            return [] if result is None else [("", result)]
        par, left, right = control
        if left == FINAL and right == FINAL:
            return [("", (self.joins[par][0], s, h, o, n))]
        moves = []
        # A sequential thread (an int control) has at most one move, so it
        # is run inline rather than through a nested call.
        if left != FINAL:
            if left.__class__ is int:
                result = code[left](s, h, o, n)
                sub = () if result is None else (("", result),)
            else:
                sub = self._moves(left, s, h, o, n)
            for choice, result in sub:
                if result is not ABORT:
                    moved, s2, h2, o2, n2 = result
                    result = ((par, moved, right), s2, h2, o2, n2)
                moves.append(("L" + choice, result))
        if right != FINAL:
            if right.__class__ is int:
                result = code[right](s, h, o, n)
                sub = () if result is None else (("", result),)
            else:
                sub = self._moves(right, s, h, o, n)
            for choice, result in sub:
                if result is not ABORT:
                    moved, s2, h2, o2, n2 = result
                    result = ((par, left, moved), s2, h2, o2, n2)
                moves.append(("R" + choice, result))
        return moves

    # -- decoding ----------------------------------------------------------

    def command(self, control: Control) -> Command:
        """The reference residual command of ``control``."""
        if control.__class__ is int:
            command, stack = self.residuals[control]
        else:
            par, left, right = control
            command = Par(self.command(left), self.command(right))
            stack = self.joins[par][1]
        for continuation in stack:
            command = Seq(command, continuation)
        return command

    def reference(self, config: tuple, extras: tuple = ()) -> Config:
        """The reference :class:`Config` of ``config``."""
        return Config(self.command(config[0]), self.state(config, extras))


def _blocked(s: tuple, h: tuple, o: tuple, n: int) -> None:
    return None


def _goto(target: Control) -> Callable:
    return lambda s, h, o, n: (target, s, h, o, n)


# -- the compiled-program cache -------------------------------------------------

#: Lowered programs kept, most recently used last.  A program is keyed by
#: identity (callers re-run the same AST object) and held weakly, so the
#: machines of programs that are gone are dropped at the next lowering
#: (a machine keeps a program alive only when its root is a single
#: statement, which its instructions refer to; eviction bounds those).
CACHE_SIZE = 32

_cache: dict = {}  # id(program) -> (weak reference to program, machine)
_cache_lock = threading.Lock()


def lower(program: Command) -> Machine:
    """The :class:`Machine` for ``program``, from a bounded cache."""
    key = id(program)
    with _cache_lock:
        entry = _cache.pop(key, None)
        if entry is not None and entry[0]() is program:
            _cache[key] = entry
            return entry[1]
    machine = Machine(program)
    with _cache_lock:
        for stale in [cached for cached, (ref, _) in _cache.items() if ref() is None]:
            del _cache[stale]
        _cache[key] = (weakref.ref(program), machine)
        while len(_cache) > CACHE_SIZE:
            del _cache[next(iter(_cache))]
    return machine


# -- distinct-state search --------------------------------------------------------


class StateBudgetExceeded(Exception):
    """:func:`explore` reached more distinct configurations than its budget."""


@dataclass(frozen=True)
class Reachable:
    """What :func:`explore` found.

    ``finals`` holds each reachable final state once, in depth-first
    order.  ``aborted`` means some interleaving reaches ``abort``; the
    search stops at the first one, so ``finals`` is then partial.
    ``configs`` counts the distinct configurations visited.
    """

    finals: tuple
    aborted: bool
    configs: int


def explore(
    program: Command,
    inputs: Optional[dict] = None,
    heap: Optional[dict] = None,
    budget: Optional[int] = None,
    max_steps: int = 10_000,
) -> Reachable:
    """Depth-first search of every configuration reachable from
    ``State.make(inputs, heap)``, each visited once.

    The visit order is the reference path enumeration's
    (:func:`repro.lang.scheduler.enumerate_executions`), less repeats, so
    the first abort is found at the same configuration.  A configuration
    with every thread blocked has no successors and is dropped, as there.
    Raises RuntimeError when a path exceeds ``max_steps`` or returns to a
    configuration on itself (a divergent interleaving, which the path
    enumerator reports at ``max_steps``), and
    :class:`StateBudgetExceeded` on reaching configuration ``budget + 1``.
    """
    machine = lower(program)
    start, extras = machine.start(inputs, heap)
    limit = budget if budget is not None else float("inf")
    moves = machine._moves
    seen: dict = {}  # configuration -> its serial number, in discovery order
    on_path: set = set()  # serials of the configurations being expanded
    path: list = []
    finals: list = []
    frames = [iter((start,))]
    aborted = False
    while frames:
        for config in frames[-1]:
            serial = len(seen)
            known = seen.setdefault(config, serial)
            if known == serial:
                break
            if known in on_path:
                raise RuntimeError("execution revisits a configuration on its own path (divergence)")
        else:
            frames.pop()
            if path:
                on_path.discard(path.pop())
            continue
        if serial >= limit:
            raise StateBudgetExceeded(f"more than {budget} distinct configurations")
        if len(frames) > max_steps + 1:
            raise RuntimeError("execution exceeded max_steps (possible divergence)")
        control, s, h, o, n = config
        if control == FINAL:
            finals.append(config)
            continue
        successors = [result for _, result in moves(control, s, h, o, n)]
        if ABORT in successors:
            aborted = True
            break
        on_path.add(serial)
        path.append(serial)
        frames.append(iter(successors))
    states = tuple(machine.state(final, extras) for final in finals)
    return Reachable(states, aborted, len(seen))


__all__ = [
    "FINAL",
    "Machine",
    "Move",
    "Reachable",
    "StateBudgetExceeded",
    "UNSET",
    "explore",
    "lower",
]
