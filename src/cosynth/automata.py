"""Deterministic finite automata with partial transition functions.

States and events are opaque strings.  A :class:`Dfa` generates the
prefix-closed language of words it can run, and accepts the subset of
generated words that end in a marked state.  All operations are pure:
automata are frozen after construction and every transformation returns a
new automaton, so shared instances are safe to use concurrently.

Determinism of every constructed automaton is enforced in the constructor.
Completion (adding an absorbing error state) is always explicit because the
error state is load-bearing for the satisfaction checks built on top.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

Word = tuple[str, ...]

EPSILON: Word = ()


class InputError(ValueError):
    """Raised when an operation is called with arguments violating its contract."""


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
        merged = list(self.events) + [e for e in other.events if e not in self]
        return EventAlphabet(tuple(merged), self.controllable | other.controllable)

    def restrict(self, events: Iterable[str]) -> "EventAlphabet":
        keep = set(events)
        kept = tuple(e for e in self.events if e in keep)
        return EventAlphabet(kept, self.controllable & keep)


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
        for (src, event), dst in transitions.items():
            if src not in state_set or dst not in state_set:
                raise InputError(f"transition ({src},{event})->{dst} references unknown state")
            if event not in self.alphabet:
                raise InputError(f"transition event {event!r} not in alphabet")

    # -- basic queries -------------------------------------------------

    def step(self, state: str, event: str) -> Optional[str]:
        return self.transitions.get((state, event))

    def next_events(self, state: str) -> list[str]:
        return [e for e in self.alphabet.events if (state, e) in self.transitions]

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


def generates(dfa: Dfa, word: Sequence[str]) -> bool:
    return run(dfa, word) is not None


def accepts(dfa: Dfa, word: Sequence[str]) -> bool:
    q = run(dfa, word)
    return q is not None and q in dfa.marked


def all_marked(dfa: Dfa) -> Dfa:
    """The generated-language view: every state marked."""
    return Dfa(dfa.states, dfa.alphabet, dfa.initial, dfa.transitions, frozenset(dfa.states))


# -- reachability and trimming -----------------------------------------


def _bfs_order(dfa: Dfa) -> list[str]:
    """States reachable from the initial state in BFS order, events in alphabet order."""
    order = [dfa.initial]
    seen = {dfa.initial}
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for e in dfa.alphabet.events:
            nxt = dfa.transitions.get((q, e))
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


def accessible(dfa: Dfa) -> Dfa:
    """Restrict to states reachable from the initial state, in BFS order."""
    order = _bfs_order(dfa)
    keep = set(order)
    transitions = {k: v for k, v in dfa.transitions.items() if k[0] in keep and v in keep}
    return Dfa(tuple(order), dfa.alphabet, dfa.initial, transitions, dfa.marked & keep)


def _coreachable(dfa: Dfa) -> set[str]:
    back: dict[str, set[str]] = {q: set() for q in dfa.states}
    for (src, _), dst in dfa.transitions.items():
        back[dst].add(src)
    good = set(dfa.marked)
    queue = deque(good)
    while queue:
        q = queue.popleft()
        for p in back[q]:
            if p not in good:
                good.add(p)
                queue.append(p)
    return good


def empty_dfa(alphabet: EventAlphabet) -> Dfa:
    """Canonical empty-language automaton: one unmarked state, no transitions."""
    return Dfa(("0",), alphabet, "0", {}, frozenset())


def universal_dfa(alphabet: EventAlphabet) -> Dfa:
    """One marked state with self-loops on every event: accepts every word."""
    return Dfa(("0",), alphabet, "0", {("0", e): "0" for e in alphabet.events}, frozenset(("0",)))


def trim(dfa: Dfa) -> Dfa:
    """Keep states both reachable and co-reachable to a marked state.

    If the initial state is not co-reachable the canonical empty-language
    automaton is returned.
    """
    acc = accessible(dfa)
    good = _coreachable(acc)
    if acc.initial not in good:
        return empty_dfa(dfa.alphabet)
    states = tuple(q for q in acc.states if q in good)
    transitions = {k: v for k, v in acc.transitions.items() if k[0] in good and v in good}
    return Dfa(states, acc.alphabet, acc.initial, transitions, acc.marked & good)


# -- completion and complement ------------------------------------------


def _fresh_state(base: str, used: Iterable[str]) -> str:
    used = set(used)
    name = base
    while name in used:
        name += "'"
    return name


def complete(dfa: Dfa, error_state: Optional[str] = None) -> tuple[Dfa, str]:
    """Total automaton plus the identity of the absorbing error state.

    Every undefined (state, event) pair is redirected to a fresh error state
    which self-loops on all events.  Marked states are left untouched; the
    caller decides how the error state participates in acceptance.
    """
    qe = error_state or _fresh_state("qe", dfa.states)
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


def parallel_compose(a: Dfa, b: Dfa) -> Dfa:
    """Parallel composition: shared events synchronise, private events interleave.

    The result is over the union alphabet, trimmed to accessible states,
    with marked states the product of the operand marked sets and composed
    state ids named "⟨left,right⟩".
    """
    alphabet = a.alphabet.union(b.alphabet)
    in_a = {e: e in a.alphabet for e in alphabet.events}
    in_b = {e: e in b.alphabet for e in alphabet.events}

    def name(pa: str, pb: str) -> str:
        return f"⟨{pa},{pb}⟩"

    init = (a.initial, b.initial)
    order: list[tuple[str, str]] = [init]
    seen = {init}
    transitions: dict[tuple[str, str], str] = {}
    marked = set()
    queue = deque(order)
    while queue:
        qa, qb = queue.popleft()
        if qa in a.marked and qb in b.marked:
            marked.add(name(qa, qb))
        for e in alphabet.events:
            na = a.transitions.get((qa, e)) if in_a[e] else qa
            nb = b.transitions.get((qb, e)) if in_b[e] else qb
            if in_a[e] and na is None:
                continue
            if in_b[e] and nb is None:
                continue
            nxt = (na, nb)
            transitions[(name(qa, qb), e)] = name(na, nb)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    states = tuple(name(qa, qb) for qa, qb in order)
    return Dfa(states, alphabet, name(*init), transitions, frozenset(marked))


def parallel_compose_all(dfas: Sequence[Dfa]) -> Dfa:
    if not dfas:
        raise InputError("need at least one automaton")
    result = dfas[0]
    for other in dfas[1:]:
        result = parallel_compose(result, other)
    return result


def _same_alphabet(a: Dfa, b: Dfa) -> EventAlphabet:
    if a.alphabet.events != b.alphabet.events:
        raise InputError("operands must share one alphabet (same events, same order)")
    return a.alphabet


def intersect(a: Dfa, b: Dfa) -> Dfa:
    """Accepts L_m(a) ∩ L_m(b); both operands over the same alphabet."""
    _same_alphabet(a, b)
    prod = parallel_compose(a, b)
    return accessible(prod)


def union_lang(a: Dfa, b: Dfa) -> Dfa:
    """Accepts L_m(a) ∪ L_m(b); both operands over the same alphabet."""
    alphabet = _same_alphabet(a, b)
    ca, _ = complete(a)
    cb, _ = complete(b)
    prod = parallel_compose(ca, cb)
    marked = set()
    for qa in ca.states:
        for qb in cb.states:
            if qa in a.marked or qb in b.marked:
                marked.add(f"⟨{qa},{qb}⟩")
    fixed = Dfa(prod.states, alphabet, prod.initial, prod.transitions,
                frozenset(marked) & set(prod.states))
    return accessible(fixed)


def subtract(a: Dfa, b: Dfa) -> Dfa:
    """Accepts L_m(a) − L_m(b); both operands over the same alphabet."""
    _same_alphabet(a, b)
    return intersect(a, complement(b))


def extend_closure(dfa: Dfa) -> Dfa:
    """Accepts { w : some prefix of w is accepted by *dfa* } (L_m(dfa)·Σ*)."""
    comp, _ = complete(dfa)
    init_flag = comp.initial in dfa.marked
    init = (comp.initial, init_flag)
    order = [init]
    seen = {init}
    transitions: dict[tuple[str, str], str] = {}
    queue = deque(order)

    def name(q: str, flag: bool) -> str:
        return f"{q}#{int(flag)}"

    while queue:
        q, flag = queue.popleft()
        for e in comp.alphabet.events:
            nq = comp.transitions[(q, e)]
            nxt = (nq, flag or nq in dfa.marked)
            transitions[(name(q, flag), e)] = name(*nxt)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    states = tuple(name(q, f) for q, f in order)
    marked = frozenset(name(q, f) for q, f in order if f)
    return Dfa(states, dfa.alphabet, name(*init), transitions, marked)


def prefix_closure(dfa: Dfa) -> Dfa:
    """Accepts every prefix of every accepted word."""
    acc = accessible(dfa)
    good = _coreachable(acc)
    if acc.initial not in good:
        return empty_dfa(dfa.alphabet)
    states = tuple(q for q in acc.states if q in good)
    transitions = {k: v for k, v in acc.transitions.items() if k[0] in good and v in good}
    return Dfa(states, acc.alphabet, acc.initial, transitions, frozenset(states))


def star_words(dfa: Dfa) -> Dfa:
    """Accepts (L_m(dfa))*: finite concatenations of accepted words."""
    # NFA with epsilon edges from marked states back to the initial state.
    nfa: dict[tuple[str, Optional[str]], set[str]] = {}
    for (src, e), dst in dfa.transitions.items():
        nfa.setdefault((src, e), set()).add(dst)
    for q in dfa.marked:
        nfa.setdefault((q, None), set()).add(dfa.initial)
    out = _determinize(nfa, {dfa.initial}, set(dfa.marked), dfa.alphabet)
    # epsilon belongs to any star language
    marked = out.marked | {out.initial}
    return minimize(Dfa(out.states, out.alphabet, out.initial, out.transitions, marked))


# -- subset construction (internal; nondeterminism is never exposed) -----


def _determinize(
    nfa: Mapping[tuple[str, Optional[str]], set[str]],
    initials: set[str],
    marked: set[str],
    alphabet: EventAlphabet,
) -> Dfa:
    """Subset construction over an epsilon-NFA given as (state, symbol|None) -> states."""

    def closure(states: frozenset[str]) -> frozenset[str]:
        stack = list(states)
        out = set(states)
        while stack:
            q = stack.pop()
            for nxt in nfa.get((q, None), ()):
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return frozenset(out)

    start = closure(frozenset(initials))
    order = [start]
    index = {start: "0"}
    transitions: dict[tuple[str, str], str] = {}
    queue = deque(order)
    while queue:
        cur = queue.popleft()
        for e in alphabet.events:
            moved = set()
            for q in cur:
                moved |= nfa.get((q, e), set())
            if not moved:
                continue
            nxt = closure(frozenset(moved))
            if nxt not in index:
                index[nxt] = str(len(index))
                order.append(nxt)
                queue.append(nxt)
            transitions[(index[cur], e)] = index[nxt]
    states = tuple(index[s] for s in order)
    accept = frozenset(index[s] for s in order if s & marked)
    return Dfa(states, alphabet, index[start], transitions, accept)


# -- minimisation --------------------------------------------------------


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal partial DFA for the accepted language.

    States are renumbered in breadth-first order from the initial state with
    events explored in alphabet order, so two automata over the same alphabet
    accept the same language iff their minimised forms are structurally equal.
    The empty language canonicalises to one unmarked state with no transitions.
    """
    comp, _ = complete(accessible(dfa))
    # Moore partition refinement starting from the marked/unmarked split
    block: dict[str, int] = {q: (1 if q in comp.marked else 0) for q in comp.states}
    while True:
        signature = {
            q: (block[q],) + tuple(block[comp.transitions[(q, e)]] for e in comp.alphabet.events)
            for q in comp.states
        }
        renumber: dict[tuple, int] = {}
        new_block = {}
        for q in comp.states:
            sig = signature[q]
            if sig not in renumber:
                renumber[sig] = len(renumber)
            new_block[q] = renumber[sig]
        if new_block == block:
            break
        block = new_block

    class_of = {q: block[q] for q in comp.states}
    reps: dict[int, str] = {}
    for q in comp.states:
        reps.setdefault(class_of[q], q)
    marked_classes = {class_of[q] for q in comp.marked}
    trans_classes = {
        (class_of[q], e): class_of[comp.transitions[(q, e)]]
        for q in comp.states
        for e in comp.alphabet.events
    }
    # a class is dead if no marked class is reachable from it
    live: set[int] = set(marked_classes)
    changed = True
    while changed:
        changed = False
        for (c, _e), d in trans_classes.items():
            if d in live and c not in live:
                live.add(c)
                changed = True
    init_class = class_of[comp.initial]
    if init_class not in live:
        return empty_dfa(dfa.alphabet)

    order = [init_class]
    names = {init_class: "0"}
    queue = deque(order)
    transitions: dict[tuple[str, str], str] = {}
    while queue:
        c = queue.popleft()
        for e in comp.alphabet.events:
            d = trans_classes[(c, e)]
            if d not in live:
                continue
            if d not in names:
                names[d] = str(len(names))
                order.append(d)
                queue.append(d)
            transitions[(names[c], e)] = names[d]
    states = tuple(names[c] for c in order)
    marked = frozenset(names[c] for c in order if c in marked_classes)
    return Dfa(states, dfa.alphabet, names[init_class], transitions, marked)


# -- language comparisons ------------------------------------------------


def shortest_marked(dfa: Dfa) -> Optional[Word]:
    """Shortest accepted word, ties broken lexicographically by event order."""
    if dfa.initial in dfa.marked:
        return EPSILON
    seen = {dfa.initial}
    queue: deque[tuple[str, Word]] = deque([(dfa.initial, EPSILON)])
    while queue:
        q, word = queue.popleft()
        for e in dfa.alphabet.events:
            nxt = dfa.transitions.get((q, e))
            if nxt is None or nxt in seen:
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
    witness search uses a's event order.
    """
    if set(a.alphabet.events) != set(b.alphabet.events):
        raise InputError("language comparison requires identical event sets")
    cb, _ = complete(b)
    start = (a.initial, cb.initial)
    if a.initial in a.marked and cb.initial not in b.marked:
        return EPSILON
    seen = {start}
    queue: deque[tuple[tuple[str, str], Word]] = deque([(start, EPSILON)])
    while queue:
        (qa, qb), word = queue.popleft()
        for e in a.alphabet.events:
            na = a.transitions.get((qa, e))
            if na is None:
                continue
            nb = cb.transitions[(qb, e)]
            w = word + (e,)
            if na in a.marked and nb not in b.marked:
                return w
            nxt = (na, nb)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w))
    return None


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


def word_dfa(word: Sequence[str], alphabet: EventAlphabet) -> Dfa:
    """Trim DFA whose generated and accepted language are the prefixes of *word*."""
    word = tuple(word)
    for s in word:
        if s not in alphabet:
            raise InputError(f"symbol {s!r} outside alphabet")
    states = tuple(str(i) for i in range(len(word) + 1))
    transitions = {(str(i), s): str(i + 1) for i, s in enumerate(word)}
    return Dfa(states, alphabet, "0", transitions, frozenset(states))


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
    order = _bfs_order(dfa)
    rest = [q for q in dfa.states if q not in set(order)]
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
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not in_transitions:
            key, colon, rest = line.partition(":")
            key = key.strip()
            if not colon or key not in _SECTIONS:
                raise InputError(f"{source}:{lineno}: expected one of {_SECTIONS}, got {line!r}")
            seen.add(key)
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
    missing = set(_SECTIONS) - seen
    if missing:
        raise InputError(f"{source}: missing sections: {sorted(missing)}")
    if initial is None:
        raise AssertionError(f"{source}: parsed automaton has no initial state")
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
