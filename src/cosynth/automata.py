"""Deterministic finite automata with partial transition functions.

States and events are opaque strings.  A :class:`Dfa` generates the
prefix-closed language of words it can run, and accepts the subset of
generated words that end in a marked state.  All operations are pure:
automata are frozen after construction and every transformation returns a
new automaton, so shared instances are safe to use concurrently.

The constructor checks every automaton built from outside parts; one that
a numbered walk builds is deterministic by construction.  Completion
(adding an absorbing error state) is explicit where an operation needs a
total automaton, as complementation does; minimisation and the language
comparisons walk the partial automaton and send every missing transition
to an implicit, absorbing, unmarked sink.

Every automaton the library builds by a walk is numbered by one function,
``_numbered_walk``, which owns the numbering rule; ``_numbered_dfa`` names
the states of a walk when they need names.  The callers differ only in what
a state is and which moves it has: a string automaton's states step
through their own moves, gathered in event order in one pass over the
transitions, so a walk costs the moves it takes and not states × events
(``_edge_walk``, which serves :func:`minimize` and :func:`dfa_to_text`);
the subsets of an epsilon-NFA step through the subset construction
(``_subset_walk``), whose successor lists projection, the weakest
assumption and the replanning splice hand to the integer core of
:func:`minimize`.  No automaton is trimmed after it is built: a walk
reaches only reachable states, and the integer core drops the states that
reach no marked one.

Every synchronous product is one walk over integer codes of operand state
tuples (``_Product``), one mixed-radix integer per tuple, which steps a
code through the moves that its operands' states have by adding each
moving operand's precomputed delta: :func:`parallel_compose_all`, with
:func:`parallel_compose` its two-operand case, decodes the codes it
reaches to name them; :func:`minimal_product` feeds their successor lists
to the integer core of :func:`minimize`; and :func:`product_violation`
walks them next to a property to find the shortest, lexicographically
least accepted word that leaves it.  That walk is the core's one answer to
"does this product satisfy the property?": :func:`language_subset` and
:func:`cosynth.langops.satisfies` ask it of one operand; in
:mod:`cosynth.verification` the plan check asks it of the plans, and the
symmetric rule's last premise of the complemented assumptions.  This
walk, and the weakest assumption's walk of the same product that builds
its violation automaton, move the property along its own transitions at
each pair they reach, so a check costs the pairs the product reaches and
not the property's states × events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Mapping, Optional, Sequence, TypeVar

Word = tuple[str, ...]

T = TypeVar("T")
L = TypeVar("L")

EPSILON: Word = ()


class InputError(ValueError):
    """Raised when an operation is called with arguments violating its contract."""


class InvariantError(AssertionError):
    """Raised when an internal invariant fails: a defect of the program, not of its input.

    Invariants are explicit raises, not ``assert`` statements, so they also
    hold under ``python -O``.
    """


@dataclass(frozen=True)
class EventAlphabet:
    """An ordered event set with a controllable/uncontrollable partition."""

    events: tuple[str, ...]
    controllable: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        controllable = frozenset(self.controllable)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "controllable", controllable)
        if len(set(events)) != len(events):
            raise InputError(f"duplicate events in alphabet: {events}")
        for e in events:
            if not e or any(ch.isspace() for ch in e):
                raise InputError(f"event symbols must be non-empty and free of whitespace: {e!r}")
        if not controllable <= set(events):
            raise InputError(f"controllable set {sorted(controllable)} not within events")
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(events)})

    @property
    def uncontrollable(self) -> frozenset[str]:
        return frozenset(self.events) - self.controllable

    def index(self, event: str) -> int:
        try:
            return self._index[event]  # type: ignore[attr-defined]
        except KeyError:
            raise InputError(f"event {event!r} not in alphabet") from None

    def __contains__(self, event: str) -> bool:
        return event in self._index  # type: ignore[attr-defined]

    def union(self, other: "EventAlphabet") -> "EventAlphabet":
        merged = self.events + tuple(e for e in other.events if e not in self)
        return EventAlphabet._derived(merged, self.controllable | other.controllable)

    def restrict(self, events: Iterable[str]) -> "EventAlphabet":
        keep = set(events)
        kept = tuple(e for e in self.events if e in keep)
        return EventAlphabet._derived(kept, self.controllable & keep)

    @classmethod
    def _derived(cls, events: tuple[str, ...], controllable: frozenset[str]) -> "EventAlphabet":
        """The alphabet of *events*, distinct events drawn from checked
        alphabets, with *controllable* among them: no event is checked again."""
        alphabet = object.__new__(cls)
        object.__setattr__(alphabet, "events", events)
        object.__setattr__(alphabet, "controllable", controllable)
        object.__setattr__(alphabet, "_index", {e: i for i, e in enumerate(events)})
        return alphabet


@dataclass(frozen=True)
class Dfa:
    """A deterministic finite automaton with a partial transition function."""

    states: tuple[str, ...]
    alphabet: EventAlphabet
    initial: str
    transitions: Mapping[tuple[str, str], str]
    marked: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        states = tuple(self.states)
        marked = frozenset(self.marked)
        transitions = dict(self.transitions)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "marked", marked)
        object.__setattr__(self, "transitions", transitions)
        state_set = set(states)
        if len(state_set) != len(states):
            raise InputError("duplicate state ids")
        if self.initial not in state_set:
            raise InputError(f"initial state {self.initial!r} not among states")
        if not marked <= state_set:
            raise InputError("marked states must be a subset of states")
        if not transitions:
            return
        sources, events = zip(*transitions)
        if (state_set.issuperset(sources) and state_set.issuperset(transitions.values())
                and self.alphabet._index.keys() >= set(events)):  # type: ignore[attr-defined]
            return
        # some inclusion failed: name the first offending transition
        for (src, event), dst in transitions.items():
            if src not in state_set or dst not in state_set:
                raise InputError(f"transition ({src},{event})->{dst} references unknown state")
            if event not in self.alphabet:
                raise InputError(f"transition event {event!r} not in alphabet")

    # -- basic queries -------------------------------------------------

    def is_total(self) -> bool:
        return all((q, e) in self.transitions for q in self.states for e in self.alphabet.events)


def run(dfa: Dfa, word: Sequence[str]) -> Optional[str]:
    """State reached by *word* from the initial state, or None if undefined.

    Membership helpers: a word is generated iff its run is defined, and
    accepted iff it is generated and ends in a marked state.
    """
    state: Optional[str] = dfa.initial
    for symbol in word:
        if symbol not in dfa.alphabet:
            raise InputError(f"symbol {symbol!r} outside alphabet")
        state = dfa.transitions.get((state, symbol))
        if state is None:
            return None
    return state


def accepts(dfa: Dfa, word: Sequence[str]) -> bool:
    q = run(dfa, word)
    return q is not None and q in dfa.marked


def all_marked(dfa: Dfa) -> Dfa:
    """The generated-language view: every state marked.

    An automaton whose states are all marked already is returned as it is,
    so a minimised one keeps its canonical record (see :func:`minimize`).
    """
    if len(dfa.marked) == len(dfa.states):
        return dfa
    return Dfa(dfa.states, dfa.alphabet, dfa.initial, dfa.transitions, frozenset(dfa.states))


# -- numbered walks ------------------------------------------------------


def _out_edges(dfa: Dfa,
               alphabet: Optional[EventAlphabet] = None) -> dict[str, list[tuple[int, str, str]]]:
    """The (event index, event, next state) moves of each state that has
    any, in the order of *alphabet*: by default the automaton's own, else
    one that holds all of its events.

    Gathered in one pass over the transitions, so a walk that follows them
    pays for the moves it has and not for states × events.
    """
    index = (alphabet or dfa.alphabet)._index  # type: ignore[attr-defined]
    edges: dict[str, list[tuple[int, str, str]]] = {}
    for (src, e), dst in dfa.transitions.items():
        edges.setdefault(src, []).append((index[e], e, dst))
    for out in edges.values():
        out.sort()
    return edges


def _numbered_walk(start: T, step: Callable[[T], Iterable[tuple[L, T]]]
                   ) -> tuple[list[T], list[list[tuple[L, int]]]]:
    """The states reachable from *start*, numbered breadth first in the order
    first seen, and the (label, state number) moves of each, in the order
    ``step(state)`` lists its (label, next state) moves; *step* is called
    once per reached state, in number order.

    This is the numbering rule of every automaton the library builds by a
    walk: state 0 is the start and each step lists its moves in event order.
    The integer core of :func:`minimize` takes the successor lists as they
    are, and its canonical names and :func:`dfa_to_text` follow this order.
    """
    number = {start: 0}
    order = [start]
    succ: list[list[tuple[L, int]]] = []
    for x in order:
        out = []
        for label, nxt in step(x):
            n = number.get(nxt)
            if n is None:
                n = number[nxt] = len(order)
                order.append(nxt)
            out.append((label, n))
        succ.append(out)
    return order, succ


def _numbered_dfa(names: Sequence[str], succ: list[list[tuple[int, int]]],
                  alphabet: EventAlphabet, marked: Iterable[bool]) -> Dfa:
    """The automaton of a numbered walk, state p named ``names[p]``, which
    the walk makes deterministic; the caller keeps the names distinct."""
    events = alphabet.events
    dfa = object.__new__(Dfa)
    object.__setattr__(dfa, "states", tuple(names))
    object.__setattr__(dfa, "alphabet", alphabet)
    object.__setattr__(dfa, "initial", names[0])
    object.__setattr__(dfa, "transitions", {
        (name, events[a]): names[n] for name, out in zip(names, succ) for a, n in out})
    object.__setattr__(dfa, "marked", frozenset(compress(names, marked)))
    return dfa


_NAMES: tuple[str, ...] = ()  # "0", "1", …: the names of numbered states


def _state_names(n: int) -> tuple[str, ...]:
    """The first *n* of ``_NAMES``, which a longer tuple replaces when a call
    needs more: no number is converted twice, and no caller sees a change."""
    global _NAMES
    names = _NAMES
    if len(names) < n:
        names = _NAMES = names + tuple(map(str, range(len(names), n)))
    return names[:n]


def _edge_walk(dfa: Dfa) -> tuple[list[str], list[list[tuple[int, int]]]]:
    """:func:`_numbered_walk` of *dfa* along its own moves, gathered as in ``_out_edges``."""
    index = dfa.alphabet._index  # type: ignore[attr-defined]
    moves: dict[str, list[tuple[int, str]]] = {q: [] for q in dfa.states}
    for (src, e), dst in dfa.transitions.items():
        moves[src].append((index[e], dst))
    for out in moves.values():
        out.sort()
    return _numbered_walk(dfa.initial, moves.__getitem__)


# -- completion and complement ------------------------------------------


def _fresh_state(base: str, used: Iterable[str]) -> str:
    used = set(used)
    name = base
    while name in used:
        name += "'"
    return name


def complete(dfa: Dfa) -> tuple[Dfa, str]:
    """Total automaton plus the identity of the absorbing error state.

    Every undefined (state, event) pair is redirected to a fresh error state
    which self-loops on all events.  Marked states are left untouched; the
    caller decides how the error state participates in acceptance.
    """
    qe = _fresh_state("qe", dfa.states)
    transitions = dict(dfa.transitions)
    for q in dfa.states + (qe,):
        for e in dfa.alphabet.events:
            transitions.setdefault((q, e), qe)
    return Dfa(dfa.states + (qe,), dfa.alphabet, dfa.initial, transitions, dfa.marked), qe


def complement(dfa: Dfa) -> Dfa:
    """Accepts exactly the words not accepted by *dfa* (built on the completion)."""
    comp, _ = complete(dfa)
    return Dfa(comp.states, comp.alphabet, comp.initial, comp.transitions,
               frozenset(comp.states) - dfa.marked)


# -- products over a shared or merged alphabet ---------------------------


def _union_events(dfas: Sequence[Dfa]) -> tuple[str, ...]:
    """The events of *dfas*, each once, in operand order."""
    if not dfas:
        raise InputError("need at least one automaton")
    return tuple(dict.fromkeys(e for dfa in dfas for e in dfa.alphabet.events))


class _Product:
    """The synchronous product of *dfas* over *events*, walked over integer
    codes of operand state tuples without naming them.

    Operand i's state number q_i is its position in ``dfas[i].states``, and
    a tuple is the mixed-radix code c = Σ q_i·stride_i, where stride_i is
    the product of the state counts of the operands before i; operand i's
    digit of c is ``c // stride_i % |Q_i|``.  An event moves every operand
    that owns it and needs all of them to define it; an event no operand
    owns never occurs.  A code is marked when every operand is marked in it.
    :meth:`moves` and :meth:`is_marked` remember what they computed, for
    walks that visit a code more than once.

    Each event is listed under its first owner in operand order: for each
    state number, that operand keeps the (event index, code delta, other
    owners' columns) of its moves on those events, where a move from q to q'
    adds (q' − q)·stride_i to the code, and each other owner's column holds
    the delta of that owner's move by its state number, or None where it has
    none.  A step walks the lists of the code's operand digits, keeps a move
    when every other owner's column defines it, and sorts the few moves it
    keeps by event index, so it costs the operands' moves and not the
    product alphabet.
    """

    def __init__(self, dfas: Sequence[Dfa], events: Sequence[str]) -> None:
        self.events = events
        index = {e: a for a, e in enumerate(events)}
        # per event, from its first owner on: (stride, size, delta by state
        # number) for each later owner; the first owner's moves hold this
        # very list, so owners numbered after it still join it
        others: dict[str, list[tuple[int, int, list[Optional[int]]]]] = {}
        # per operand: its (stride, size) and, by state number, the (event
        # index, delta, other owners) moves on the events that it owns first
        self._radix: list[tuple[int, int]] = []
        self._accepting: list[list[bool]] = []
        self._movers: list[tuple[int, int, list[list[tuple[int, int, list]]]]] = []
        self.initial = 0
        stride = 1
        for dfa in dfas:
            size = len(dfa.states)
            number = {q: n for n, q in enumerate(dfa.states)}
            columns: dict[str, list[Optional[int]]] = {}
            for e in dfa.alphabet.events:
                if e in others:
                    columns[e] = [None] * size
                    others[e].append((stride, size, columns[e]))
                else:
                    others[e] = []
            out: list[list[tuple[int, int, list]]] = [[] for _ in range(size)]
            for (src, e), dst in dfa.transitions.items():
                q, nq = number[src], number[dst]
                column = columns.get(e)
                if column is None:
                    out[q].append((index[e], (nq - q) * stride, others[e]))
                else:
                    column[q] = (nq - q) * stride
            self._radix.append((stride, size))
            self._accepting.append([q in dfa.marked for q in dfa.states])
            if any(out):
                self._movers.append((stride, size, out))
            self.initial += number[dfa.initial] * stride
            stride *= size
        self._moves: dict[int, list[tuple[int, int]]] = {}
        self._is_marked: dict[int, bool] = {}

    def digits(self, c: int) -> list[int]:
        """The operand state numbers of code c, in operand order."""
        return [c // stride % size for stride, size in self._radix]

    def is_marked(self, c: int) -> bool:
        """Whether every operand is marked in code c."""
        flag = self._is_marked.get(c)
        if flag is None:
            flag = self._is_marked[c] = all(map(list.__getitem__, self._accepting, self.digits(c)))
        return flag

    def marks(self, codes: Sequence[int]) -> list[bool]:
        """:meth:`is_marked` of each of *codes*, not remembered, reading only
        the digits of operands with an unmarked state."""
        flags = [True] * len(codes)
        for (stride, size), accepting in zip(self._radix, self._accepting):
            if not all(accepting):
                flags = [f and accepting[c // stride % size] for f, c in zip(flags, codes)]
        return flags

    def moves(self, c: int) -> list[tuple[int, int]]:
        """(event index, next code) for each move of code c, in event order."""
        out = self._moves.get(c)
        if out is None:
            out = self._moves[c] = self._step(c)
        return out

    def _step(self, c: int) -> list[tuple[int, int]]:
        out = []
        for stride, size, moves in self._movers:
            for a, delta, others in moves[c // stride % size]:
                nxt = c + delta
                for stride_j, size_j, column in others:
                    d = column[c // stride_j % size_j]
                    if d is None:
                        break
                    nxt += d
                else:
                    out.append((a, nxt))
        out.sort()
        return out

    def expanded(self) -> int:
        """Number of codes whose moves :meth:`moves` computed."""
        return len(self._moves)


def parallel_compose(a: Dfa, b: Dfa) -> Dfa:
    """Parallel composition: shared events synchronise, private events interleave.

    The result is over the union alphabet, holds the reachable states only,
    with marked states the product of the operand marked sets and composed
    state ids named "⟨left,right⟩".  It is the two-operand case of
    :func:`parallel_compose_all`.
    """
    return parallel_compose_all((a, b))


def parallel_compose_all(dfas: Sequence[Dfa]) -> Dfa:
    """The parallel composition of *dfas*, in one breadth-first walk of their product.

    The result equals :func:`parallel_compose` folded from the left: it is
    over the union of the operand alphabets in operand order, holds the
    accessible states in breadth-first order, marks the tuples in which every
    operand is marked, and names each tuple once, left-nested as
    "⟨⟨a,b⟩,c⟩", from the operand states its code decodes to.  One operand
    is returned as it is.
    """
    events = _union_events(dfas)
    if len(dfas) == 1:
        return dfas[0]
    product = _Product(dfas, events)
    order, succ = _numbered_walk(product.initial, product._step)
    first, *rest = [dfa.states for dfa in dfas]
    names = []
    for c in order:
        q0, *qs = product.digits(c)
        name = first[q0]
        for states, q in zip(rest, qs):
            name = f"⟨{name},{states[q]}⟩"
        names.append(name)
    if len(set(names)) != len(names):  # operand state names with commas can clash
        raise InputError("duplicate state ids")
    controllable = frozenset().union(*(dfa.alphabet.controllable for dfa in dfas))
    return _numbered_dfa(names, succ, EventAlphabet(events, controllable), product.marks(order))


def minimal_product(dfas: Sequence[Dfa], alphabet: EventAlphabet) -> Dfa:
    """The canonical minimal automaton of the product of *dfas* over *alphabet*.

    The result is :func:`minimize` of :func:`parallel_compose_all` of *dfas*
    read over *alphabet*: every operand event must be in *alphabet*, and an
    event of *alphabet* that no operand owns never occurs.  The successor
    lists of the product's numbered walk over integer codes go straight to
    the integer core of :func:`minimize`, so no product state is decoded or
    named and no intermediate automaton is built.  It builds the mission and
    the local products of :func:`cosynth.langops.decompose`.
    """
    if not dfas:
        raise InputError("need at least one automaton")
    for dfa in dfas:
        for e in dfa.alphabet.events:
            if e not in alphabet:
                raise InputError(f"event {e!r} missing from the wider alphabet")
    product = _Product(dfas, alphabet.events)
    order, succ = _numbered_walk(product.initial, product._step)
    return _minimize_numbered(succ, product.marks(order), alphabet)


def product_violation(dfas: Sequence[Dfa], prop: Dfa) -> tuple[Optional[Word], int]:
    """The shortest, lexicographically least word of the product of *dfas*
    that leaves the property's marked language (None if there is none), and
    the number of product states the walk expanded: all of the product's
    states when there is none.

    A breadth-first walk over (product code, property state), events in the
    order of :func:`parallel_compose_all`, that moves the property along its
    own transitions as it reaches each pair: an event the property does not
    own leaves it where it is, and a missing property transition leads to
    the absorbing, unmarked sink ``None``.  A word violates when every
    operand is marked and the property is not.
    """
    product = _Product(dfas, _union_events(dfas))
    transitions, prop_marked = prop.transitions, prop.marked
    # per product event: the event itself when the property owns it
    prop_events = [e if e in prop.alphabet else None for e in product.events]
    start: tuple[int, Optional[str]] = (product.initial, prop.initial)
    if product.is_marked(product.initial) and prop.initial not in prop_marked:
        return EPSILON, 0
    parent: dict[tuple[int, Optional[str]], Optional[tuple]] = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        t, qp = pair
        for a, nt in product.moves(t):
            e = prop_events[a]
            # the sink has no transitions, so it stays the sink
            np_ = qp if e is None else transitions.get((qp, e))
            if np_ not in prop_marked and product.is_marked(nt):
                word = [product.events[a]]
                while parent[pair] is not None:
                    pair, a = parent[pair]
                    word.append(product.events[a])
                return tuple(reversed(word)), product.expanded()
            nxt = (nt, np_)
            if nxt not in parent:
                parent[nxt] = (pair, a)
                queue.append(nxt)
    return None, product.expanded()


# -- subset construction (internal; nondeterminism is never exposed) -----


def _subset_walk(
    nfa: Mapping[tuple[T, Optional[str]], set[T]],
    initials: set[T],
    alphabet: EventAlphabet,
) -> tuple[list[frozenset[T]], list[list[tuple[int, int]]]]:
    """Subset construction over an epsilon-NFA given as (state, symbol|None) -> states.

    The states may be any hashable values.  Returns the subsets reachable
    from the closure of *initials* and the (event index, subset number)
    moves of each, as :func:`_numbered_walk` numbers them, ready for
    :func:`_minimize_numbered`.  With no empty move a subset is its own
    closure, and a one-state subset takes its state's non-empty moves as
    they were sorted once per walk.
    """
    # each NFA state's empty moves, and its labelled moves in event order
    event_index = alphabet._index  # type: ignore[attr-defined]
    empty: dict[T, set[T]] = {}
    labelled: dict[T, list[tuple[int, set[T]]]] = {}
    for (q, e), targets in nfa.items():
        if e is None:
            empty[q] = targets
        elif targets and e in event_index:
            labelled.setdefault(q, []).append((event_index[e], targets))
    for out in labelled.values():
        out.sort()  # one move per event, so no two moves tie

    def closure(states: Iterable[T]) -> frozenset[T]:
        seen = set(states)
        stack = list(seen)
        while stack:
            for nxt in empty.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    if not empty:
        closure = frozenset  # every subset is closed

    def step(subset: frozenset[T]) -> list[tuple[int, frozenset[T]]]:
        if len(subset) == 1:
            (q,) = subset
            return [(a, closure(targets)) for a, targets in labelled.get(q, ())]
        moved: dict[int, set[T]] = {}
        for q in subset:
            for a, targets in labelled.get(q, ()):
                moved[a] = moved[a] | targets if a in moved else targets
        return [(a, closure(moved[a])) for a in sorted(moved)]

    return _numbered_walk(closure(initials), step)


def _determinize(
    nfa: Mapping[tuple[str, Optional[str]], set[str]],
    initials: set[str],
    marked: set[str],
    alphabet: EventAlphabet,
) -> Dfa:
    """The automaton of :func:`_subset_walk`, subset n named "n" by
    :func:`_state_names`; a subset is marked when it holds a state of *marked*."""
    order, succ = _subset_walk(nfa, initials, alphabet)
    return _numbered_dfa(_state_names(len(order)), succ, alphabet,
                         [not s.isdisjoint(marked) for s in order])


# -- minimisation --------------------------------------------------------


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal partial DFA for the accepted language.

    The classes are numbered by :func:`_numbered_walk` from the initial one
    and named by their numbers, so two automata over the same alphabet
    accept the same language iff their minimised forms are structurally equal.
    The empty language canonicalises to one unmarked state with no transitions.

    The result records that it is canonical, in a hidden attribute as
    :class:`EventAlphabet` keeps its index, and a recorded input is returned
    unchanged.  Automata are immutable, so the record stays true; any new
    ``Dfa`` built from a recorded one carries none, except the one that
    :func:`cosynth.langops.widen_like` reindexes over the same events in
    the same order.

    This is the string front end: it numbers the reachable states and hands
    their successor lists to :func:`_minimize_numbered`.
    """
    if getattr(dfa, "_canonical", False):
        return dfa
    order, succ = _edge_walk(dfa)
    return _minimize_numbered(succ, [q in dfa.marked for q in order], dfa.alphabet)


def _minimize_numbered(succ: list[list[tuple[int, int]]], marked: list[bool],
                       alphabet: EventAlphabet) -> Dfa:
    """The integer core of :func:`minimize`.

    State 0 is initial; ``succ[p]`` lists the (event index, state) moves of
    state p in event order, and ``marked[p]`` whether p is marked.

    Hopcroft's partition refinement on the partial automaton (Valmari and
    Lehtinen, STACS 2008), from the live states grouped by one step (marked
    or not, and the event and mark of each move into a live state), which
    equivalent states share, every group waiting.  States that reach no
    marked state are dropped (all are live when all are marked), and a
    missing move goes to an implicit sink that never splits, so the work
    grows with the transitions, not with states times events.  A splitter
    of one state whose predecessors come one per event splits each of them
    out of its block alone.  Refinement runs only while there are fewer
    blocks than live states: once each live state has its own block,
    splitters still waiting are dropped, and a grouping that already
    separates every live state builds neither the reverse edges (which the
    liveness sweep otherwise needs only when a state is unmarked) nor the
    waiting list.  The classes are numbered by the walk from the
    initial one, so the result does not depend on how the states were
    numbered; when no two states merge and ``succ`` already numbers them as
    that walk would, the input is returned as it stands.  States are named
    by their numbers (:func:`_state_names`).
    """
    n = len(succ)
    back: list[list[tuple[int, int]]] = []  # the reverse edges, gathered when first needed
    # keep the live states, those from which a marked state is reachable
    live, n_live = marked, n
    if not all(marked):
        back = _reverse_edges(succ)
        live = marked[:]
        stack = [q for q, m in enumerate(marked) if m]
        while stack:
            for _, p in back[stack.pop()]:
                if not live[p]:
                    live[p] = True
                    stack.append(p)
        n_live = sum(live)
    if not live[0]:
        return _canonical(empty_dfa(alphabet))

    # group the live states by one step, a move on event a into q keyed
    # 2a + marked[q]; a waiting block splits every block by its predecessors
    groups: dict[tuple, set[int]] = {}
    for p in compress(range(n), live):  # with every state marked, by its events alone
        key = (tuple([a for a, _ in succ[p]]) if live is marked else
               (marked[p], tuple([a + a + marked[q] for a, q in succ[p] if live[q]])))
        groups.setdefault(key, set()).add(p)
    blocks = list(groups.values())
    block_of = [-1] * n
    for b, block in enumerate(blocks):
        for p in block:
            block_of[p] = b
    # a partition with one live state per block can split no further
    waiting = list(range(len(blocks))) if len(blocks) < n_live else []
    in_waiting = [True] * len(blocks)
    if waiting and not back:
        back = _reverse_edges(succ)
    while waiting and len(blocks) < n_live:
        splitter = waiting.pop()
        in_waiting[splitter] = False
        if len(blocks[splitter]) == 1:
            (q,) = blocks[splitter]
            if len(dict(back[q])) == len(back[q]):
                # one predecessor per event: each leaves its block alone
                for _, p in back[q]:
                    block = blocks[block_of[p]]
                    if len(block) > 1:
                        block.remove(p)
                        block_of[p] = len(blocks)
                        waiting.append(len(blocks))
                        blocks.append({p})
                        in_waiting.append(True)
                continue
        preimages: dict[int, list[int]] = {}
        for q in blocks[splitter]:
            for a, p in back[q]:
                preimages.setdefault(a, []).append(p)
        for sources in preimages.values():
            touched: dict[int, list[int]] = {}
            for p in sources:
                touched.setdefault(block_of[p], []).append(p)
            for b, part in touched.items():
                if len(part) == len(blocks[b]):
                    continue
                blocks[b].difference_update(part)
                new = len(blocks)
                blocks.append(set(part))
                for p in part:
                    block_of[p] = new
                if in_waiting[b] or len(part) <= len(blocks[b]):
                    waiting.append(new)
                    in_waiting.append(True)
                else:
                    waiting.append(b)
                    in_waiting[b] = True
                    in_waiting.append(False)

    if len(blocks) == n and _walk_numbered(succ):
        return _canonical(_numbered_dfa(_state_names(n), succ, alphabet, marked))
    # canonical form: the classes numbered from the initial one, each read off one of its states
    rep = [next(iter(block)) for block in blocks]
    class_moves = [[(a, block_of[q]) for a, q in succ[p] if live[q]] for p in rep]
    classes, moves = _numbered_walk(block_of[0], class_moves.__getitem__)
    return _canonical(_numbered_dfa(_state_names(len(classes)), moves, alphabet,
                                    [marked[rep[c]] for c in classes]))


def _reverse_edges(succ: list[list[tuple[int, int]]]) -> list[list[tuple[int, int]]]:
    """The (event index, predecessor) moves into each state of ``succ``."""
    back: list[list[tuple[int, int]]] = [[] for _ in succ]
    for p, out in enumerate(succ):
        for a, q in out:
            back[q].append((a, p))
    return back


def _walk_numbered(succ: list[list[tuple[int, int]]]) -> bool:
    """Whether :func:`_numbered_walk` from state 0 along ``succ`` numbers
    every state as ``succ`` does: each state is reached before its moves
    are listed, and each move leads to a state already seen or to the next
    new one."""
    seen = 1
    for p, out in enumerate(succ):
        if p == seen:
            return False
        for _, q in out:
            if q >= seen:
                if q > seen:
                    return False
                seen += 1
    return True


def _canonical(dfa: Dfa) -> Dfa:
    """Record that *dfa* is the output of :func:`minimize`."""
    object.__setattr__(dfa, "_canonical", True)
    return dfa


# -- language comparisons ------------------------------------------------


def shortest_marked(dfa: Dfa) -> Optional[Word]:
    """Shortest accepted word, ties broken lexicographically by event order."""
    if dfa.initial in dfa.marked:
        return EPSILON
    edges = _out_edges(dfa)
    seen = {dfa.initial}
    queue: deque[tuple[str, Word]] = deque([(dfa.initial, EPSILON)])
    while queue:
        q, word = queue.popleft()
        for _, e, nxt in edges.get(q, ()):
            if nxt in seen:
                continue
            w = word + (e,)
            if nxt in dfa.marked:
                return w
            seen.add(nxt)
            queue.append((nxt, w))
    return None


def language_empty(dfa: Dfa) -> bool:
    return shortest_marked(dfa) is None


def language_subset(a: Dfa, b: Dfa) -> Optional[Word]:
    """None if L_m(a) ⊆ L_m(b); otherwise the shortest, lexicographically least witness.

    The operands may declare their shared events in different orders; the
    witness search uses a's event order.  It is :func:`product_violation`
    of a alone against the property b.
    """
    if set(a.alphabet.events) != set(b.alphabet.events):
        raise InputError("language comparison requires identical event sets")
    return product_violation([a], b)[0]


def language_equal(a: Dfa, b: Dfa) -> Optional[Word]:
    """None if L_m(a) = L_m(b); otherwise the shortest witness of the difference."""
    w1 = language_subset(a, b)
    w2 = language_subset(b, a)
    candidates = [w for w in (w1, w2) if w is not None]
    if not candidates:
        return None
    return min(candidates, key=lambda w: (len(w), _lex_key(a.alphabet, w)))


def _lex_key(alphabet: EventAlphabet, word: Word) -> tuple[int, ...]:
    return tuple(alphabet.index(s) if s in alphabet else len(alphabet.events) for s in word)


# -- small constructors ----------------------------------------------------


def empty_dfa(alphabet: EventAlphabet) -> Dfa:
    """Canonical empty-language automaton: one unmarked state, no transitions."""
    return Dfa(("0",), alphabet, "0", {}, frozenset())


def universal_dfa(alphabet: EventAlphabet) -> Dfa:
    """One marked state with self-loops on every event: accepts every word."""
    return Dfa(("0",), alphabet, "0", {("0", e): "0" for e in alphabet.events}, frozenset(("0",)))


def words_dfa(words: Iterable[Sequence[str]], alphabet: EventAlphabet) -> Dfa:
    """Trie DFA accepting exactly the given finite set of words."""
    root = "0"
    states = [root]
    transitions: dict[tuple[str, str], str] = {}
    marked = set()
    nodes: dict[Word, str] = {EPSILON: root}
    for w in sorted(tuple(w) for w in words):
        for s in w:
            if s not in alphabet:
                raise InputError(f"symbol {s!r} outside alphabet")
        for i in range(1, len(w) + 1):
            prefix = w[:i]
            if prefix not in nodes:
                name = str(len(states))
                nodes[prefix] = name
                states.append(name)
                transitions[(nodes[w[: i - 1]], w[i - 1])] = name
        marked.add(nodes[w])
    return Dfa(tuple(states), alphabet, root, transitions, frozenset(marked))


# -- serialisation ---------------------------------------------------------

_SECTIONS = ("states", "alphabet", "controllable", "initial", "marked", "transitions")


def dfa_to_text(dfa: Dfa) -> str:
    """Canonical textual form: states in BFS order, transitions sorted by (src, event).

    Unreachable states, if any, follow the BFS-ordered reachable states in
    their original relative order so the round trip is bit-exact.
    """
    order = _edge_walk(dfa)[0]
    reached = set(order)
    rest = [q for q in dfa.states if q not in reached]
    states = order + rest
    pos = {q: i for i, q in enumerate(states)}
    lines = [
        "states: " + " ".join(states),
        "alphabet: " + " ".join(dfa.alphabet.events),
        "controllable: " + " ".join(e for e in dfa.alphabet.events if e in dfa.alphabet.controllable),
        "initial: " + dfa.initial,
        "marked: " + " ".join(q for q in states if q in dfa.marked),
        "transitions:",
    ]
    items = sorted(dfa.transitions.items(), key=lambda kv: (pos[kv[0][0]], dfa.alphabet.index(kv[0][1])))
    for (src, event), dst in items:
        lines.append(f"{src} {event} {dst}")
    return "\n".join(lines) + "\n"


def dfa_from_text(text: str, source: str = "<string>") -> Dfa:
    states: list[str] = []
    events: list[str] = []
    controllable: list[str] = []
    initial: Optional[str] = None
    marked: list[str] = []
    transitions: dict[tuple[str, str], str] = {}
    in_transitions = False
    seen: dict[str, int] = {}  # per section: the line giving it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not in_transitions:
            key, colon, rest = line.partition(":")
            key = key.strip()
            if not colon or key not in _SECTIONS:
                raise InputError(f"{source}:{lineno}: expected one of {_SECTIONS}, got {line!r}")
            first = seen.setdefault(key, lineno)
            if first != lineno:
                raise InputError(f"{source}:{lineno}: section {key!r} already given on line {first}")
            values = rest.split()
            if key == "states":
                states = values
            elif key == "alphabet":
                events = values
            elif key == "controllable":
                controllable = values
            elif key == "initial":
                if len(values) != 1:
                    raise InputError(f"{source}:{lineno}: initial wants exactly one state")
                initial = values[0]
            elif key == "marked":
                marked = values
            elif key == "transitions":
                if values:
                    raise InputError(f"{source}:{lineno}: transitions header takes no values")
                in_transitions = True
        else:
            parts = line.split()
            if len(parts) != 3:
                raise InputError(f"{source}:{lineno}: transition wants 'src event dst', got {line!r}")
            src, event, dst = parts
            if (src, event) in transitions:
                raise InputError(f"{source}:{lineno}: duplicate transition on ({src}, {event})")
            transitions[(src, event)] = dst
    missing = set(_SECTIONS).difference(seen)
    if missing:
        raise InputError(f"{source}: missing sections: {sorted(missing)}")
    if initial is None:
        raise InvariantError(f"{source}: parsed automaton has no initial state")
    try:
        return Dfa(tuple(states), EventAlphabet(tuple(events), frozenset(controllable)),
                   initial, transitions, frozenset(marked))
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from None


def save_dfa(dfa: Dfa, path) -> None:
    from pathlib import Path

    Path(path).write_text(dfa_to_text(dfa), encoding="utf-8")


def load_dfa(path) -> Dfa:
    from pathlib import Path

    p = Path(path)
    return dfa_from_text(p.read_text(encoding="utf-8"), source=str(p))
