"""Shared test helpers: brute-force oracles, references, case-study
constructions and the language operations that only the tests use.

The oracles here never call the code paths they check: membership is decided
by stepping transition tables word by word, projections by filtering
symbols, and language comparisons by enumerating words up to a bound.

The test-only operations (word automata, union, difference, prefix closure,
the supremal prefix-closed sublanguage, star, inverse projection,
separability, quotient and controllability) and the string reachability
route (accessibility and trimming) are not oracles: no command or pipeline
stage needs them, so they left the library, and the tests use them to build
languages and state properties.  They may call the library.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import pytest

from cosynth.automata import (
    EPSILON,
    Dfa,
    EventAlphabet,
    InputError,
    InvariantError,
    Word,
    accepts,
    all_marked,
    complement,
    complete,
    empty_dfa,
    language_equal,
    language_subset,
    minimize,
    parallel_compose,
    parallel_compose_all,
    _determinize,
    _edge_walk,
    _minimize_numbered,
    _out_edges,
    _subset_walk,
)
from cosynth.langops import project, widen_like
from cosynth.motion import (
    Environment,
    IntegratedPlan,
    LabelingMap,
    MotionInfeasible,
    ReplanInfeasible,
    SimulationResult,
    motion_dfa,
    _plan_moves,
    _Node,
    _door_lost,
    _open_successors,
    _region_edges,
    _replan_walker,
    _shortest_region_path,
    _Walker,
)
from cosynth.synthesis import IllegalBehaviorSet
from cosynth.verification import _with_free_events


def _perfbench_module(name: str):
    """``perfbench/<name>.py``, imported read-only from the checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def perfbench_generate():
    """The benchmark's instance generator, ``perfbench/generate.py``."""
    return _perfbench_module("generate")


def perfbench_oracles():
    """The benchmark's output oracles, ``perfbench/oracles.py``."""
    return _perfbench_module("oracles")


def words_up_to(events: Sequence[str], length: int) -> Iterator[Word]:
    for n in range(length + 1):
        for combo in itertools.product(events, repeat=n):
            yield combo


def step_word(dfa: Dfa, word: Word):
    state = dfa.initial
    for symbol in word:
        state = dfa.transitions.get((state, symbol))
        if state is None:
            return None
    return state


def brute_accepts(dfa: Dfa, word: Word) -> bool:
    state = step_word(dfa, word)
    return state is not None and state in dfa.marked


def brute_generates(dfa: Dfa, word: Word) -> bool:
    return step_word(dfa, word) is not None


def lang_set(dfa: Dfa, length: int) -> set[Word]:
    return {w for w in words_up_to(dfa.alphabet.events, length) if brute_accepts(dfa, w)}


def generated_up_to(dfa: Dfa, length: int) -> Iterator[Word]:
    """Every word the automaton generates, up to a length, by stepping its table."""
    stack: list[tuple[str, Word]] = [(dfa.initial, ())]
    while stack:
        state, word = stack.pop()
        yield word
        if len(word) < length:
            for e in dfa.alphabet.events:
                nxt = dfa.transitions.get((state, e))
                if nxt is not None:
                    stack.append((nxt, word + (e,)))


def brute_project(word: Word, target: Iterable[str]) -> Word:
    keep = set(target)
    return tuple(s for s in word if s in keep)


def random_dfa(rng: random.Random, max_states: int, events: Sequence[str],
               density: float = 0.8, marked_p: float = 0.5) -> Dfa:
    n = rng.randint(1, max_states)
    states = tuple(str(i) for i in range(n))
    transitions = {}
    for q in states:
        for e in events:
            if rng.random() < density:
                transitions[(q, e)] = rng.choice(states)
    marked = frozenset(q for q in states if rng.random() < marked_p)
    return Dfa(states, EventAlphabet(tuple(events)), "0", transitions, marked)


def cycle_dfa(symbols: Sequence[str], alphabet: EventAlphabet) -> Dfa:
    n = len(symbols)
    states = tuple(str(i) for i in range(n))
    transitions = {(str(i), e): str((i + 1) % n) for i, e in enumerate(symbols)}
    return Dfa(states, alphabet, "0", transitions, frozenset(states))


def chain_dfa(symbols: Sequence[str], alphabet: EventAlphabet, mark_all: bool = False) -> Dfa:
    states = tuple(str(i) for i in range(len(symbols) + 1))
    transitions = {(str(i), e): str(i + 1) for i, e in enumerate(symbols)}
    marked = frozenset(states) if mark_all else frozenset({states[-1]})
    return Dfa(states, alphabet, "0", transitions, marked)


# -- the string reachability route, kept as the tests' reference -----------
# The library reaches states only by numbered walks; these trim a named
# automaton after it is built.


def accessible(dfa: Dfa) -> Dfa:
    """Restrict to states reachable from the initial state, in BFS order."""
    order = _edge_walk(dfa)[0]
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


def prefix_close_largest(l: Dfa) -> Dfa:
    """Supremal prefix-closed sublanguage: words all of whose prefixes are accepted."""
    if l.initial not in l.marked:
        return empty_dfa(l.alphabet)
    keep = set(l.marked)
    transitions = {k: v for k, v in l.transitions.items() if k[0] in keep and v in keep}
    states = tuple(q for q in l.states if q in keep)
    return trim(Dfa(states, l.alphabet, l.initial, transitions, frozenset(states)))


# -- language operations that only the tests use -----------------------------


def word_dfa(word: Sequence[str], alphabet: EventAlphabet) -> Dfa:
    """Trim DFA whose generated and accepted language are the prefixes of *word*."""
    word = tuple(word)
    for s in word:
        if s not in alphabet:
            raise InputError(f"symbol {s!r} outside alphabet")
    states = tuple(str(i) for i in range(len(word) + 1))
    transitions = {(str(i), s): str(i + 1) for i, s in enumerate(word)}
    return Dfa(states, alphabet, "0", transitions, frozenset(states))


def _same_alphabet(a: Dfa, b: Dfa) -> EventAlphabet:
    if a.alphabet.events != b.alphabet.events:
        raise InputError("operands must share one alphabet (same events, same order)")
    return a.alphabet


def union_lang(a: Dfa, b: Dfa) -> Dfa:
    """Accepts L_m(a) ∪ L_m(b); both operands over the same alphabet.

    The product of the two complements is complete, and a tuple is marked in
    it exactly when neither operand accepts, so the union is its unmarked
    states.
    """
    alphabet = _same_alphabet(a, b)
    neither = parallel_compose(complement(a), complement(b))
    return Dfa(neither.states, alphabet, neither.initial, neither.transitions,
               frozenset(neither.states) - neither.marked)


def subtract(a: Dfa, b: Dfa) -> Dfa:
    """Accepts L_m(a) − L_m(b); both operands over the same alphabet."""
    _same_alphabet(a, b)
    return parallel_compose(a, complement(b))


def prefix_closure(dfa: Dfa) -> Dfa:
    """Accepts every prefix of every accepted word."""
    t = trim(dfa)
    return all_marked(t) if t.marked else t


def star_words(dfa: Dfa) -> Dfa:
    """Accepts (L_m(dfa))*, minimised: the subset construction of the
    automaton with ε-moves from its marked states back to the initial one,
    with the initial subset marked because ε is in every star language."""
    nfa: dict[tuple[str, Optional[str]], set[str]] = {}
    for (src, e), dst in dfa.transitions.items():
        nfa.setdefault((src, e), set()).add(dst)
    for q in dfa.marked:
        nfa.setdefault((q, None), set()).add(dfa.initial)
    out = reference_determinize(nfa, {dfa.initial}, set(dfa.marked), dfa.alphabet)
    return minimize(Dfa(out.states, out.alphabet, out.initial, out.transitions,
                        out.marked | {out.initial}))


def widen_alphabet(dfa: Dfa, alphabet: EventAlphabet) -> Dfa:
    """Reinterpret over a larger alphabet without adding transitions (language preserved)."""
    for e in dfa.alphabet.events:
        if e not in alphabet:
            raise InputError(f"event {e!r} missing from the wider alphabet")
    return Dfa(dfa.states, alphabet, dfa.initial, dfa.transitions, dfa.marked)


def lift(dfa: Dfa, alphabet: EventAlphabet) -> Dfa:
    """Inverse projection: self-loop on every foreign event in every state."""
    for e in dfa.alphabet.events:
        if e not in alphabet:
            raise InputError(f"event {e!r} missing from the global alphabet")
    transitions = dict(dfa.transitions)
    foreign = [e for e in alphabet.events if e not in dfa.alphabet]
    for q in dfa.states:
        for e in foreign:
            transitions[(q, e)] = q
    return Dfa(dfa.states, alphabet, dfa.initial, transitions, dfa.marked)


def inverse_project_intersect(locals_: Sequence[Dfa], alphabet: EventAlphabet) -> Dfa:
    """Synchronous product of local languages as a DFA over the global alphabet."""
    if not locals_:
        raise InputError("need at least one local language")
    lifted = [lift(d, alphabet) for d in locals_]
    return minimize(parallel_compose_all(lifted))


def is_separable(dfa: Dfa, alphabets: Sequence[Sequence[str]]) -> Optional[Word]:
    """None if L equals the synchronous product of its own projections.

    Otherwise a word in the symmetric difference (always on the product side,
    since L is contained in the product of its projections).
    """
    union: list[str] = []
    for block in alphabets:
        for e in block:
            if e not in union:
                union.append(e)
    if not set(dfa.alphabet.events) <= set(union):
        raise InputError("alphabet blocks must cover the language's alphabet")
    wide = EventAlphabet(tuple(union), dfa.alphabet.controllable)
    widened = widen_alphabet(dfa, wide)
    projections = [project(widened, tuple(e for e in union if e in set(block))) for block in alphabets]
    product = inverse_project_intersect(projections, wide)
    return language_equal(widened, product)


def quotient(l1: Dfa, l2: Dfa) -> Dfa:
    """Accepts { s : exists t in L_m(l2) with st in L_m(l1) }.

    Realised on l1's structure: a state becomes marked iff some word of l2
    can be appended from it while ending in a marked state of l1.
    """
    if set(l1.alphabet.events) != set(l2.alphabet.events):
        raise InputError("quotient requires a shared alphabet")
    edges = _out_edges(l1)
    marked = frozenset(q for q in l1.states if _nonempty_intersection(l1, q, edges, l2))
    return trim(Dfa(l1.states, l1.alphabet, l1.initial, l1.transitions, marked))


def _nonempty_intersection(a: Dfa, source: str, edges: dict, b: Dfa) -> bool:
    """Whether one word leads a from *source* and b from its initial state
    both to marked states; *edges* are a's ``_out_edges``."""
    start = (source, b.initial)
    if source in a.marked and b.initial in b.marked:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        qa, qb = queue.popleft()
        for _, e, na in edges.get(qa, ()):
            nb = b.transitions.get((qb, e))
            if nb is None:
                continue
            if na in a.marked and nb in b.marked:
                return True
            nxt = (na, nb)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def is_controllable(spec: Dfa, plant: Dfa) -> Optional[Word]:
    """None if closure(L) Σ_uc ∩ L(plant) ⊆ closure(L); else a witness s·σ_uc.

    The spec language must be contained in the plant's generated language.
    """
    if set(spec.alphabet.events) != set(plant.alphabet.events):
        raise InputError("spec and plant must share an alphabet")
    plant_gen = all_marked(plant)
    bad = language_subset(spec, plant_gen)
    if bad is not None:
        raise InputError(f"spec language not contained in the plant: {' '.join(bad) or 'ε'}")
    closure = prefix_closure(spec)
    uncontrollable = spec.alphabet.uncontrollable
    # walk closure × plant; a defined plant move on an uncontrollable event
    # that the closure cannot follow witnesses the violation
    plant_edges = _out_edges(plant, spec.alphabet)
    start = (closure.initial, plant.initial)
    seen = {start}
    queue: deque[tuple[tuple[str, str], Word]] = deque([(start, EPSILON)])
    while queue:
        (qc, qp), word = queue.popleft()
        for _, e, np_ in plant_edges.get(qp, ()):
            nc = closure.transitions.get((qc, e))
            if nc is None:
                if e in uncontrollable:
                    return word + (e,)
                continue
            nxt = (nc, np_)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (e,)))
    return None


def reference_minimize(dfa: Dfa) -> Dfa:
    """Moore refinement over the completed accessible automaton, O(n²·k).

    The reference for :func:`cosynth.automata.minimize`: the classes that
    reach a marked class, renumbered breadth first from the initial class
    with events in alphabet order; the empty language gives one unmarked
    state with no transitions.
    """
    comp, _ = complete(accessible(dfa))
    block: dict[str, int] = {q: (1 if q in comp.marked else 0) for q in comp.states}
    while True:
        signature = {
            q: (block[q],) + tuple(block[comp.transitions[(q, e)]] for e in comp.alphabet.events)
            for q in comp.states
        }
        renumber: dict[tuple, int] = {}
        new_block = {}
        for q in comp.states:
            new_block[q] = renumber.setdefault(signature[q], len(renumber))
        if new_block == block:
            break
        block = new_block
    marked_classes = {block[q] for q in comp.marked}
    trans_classes = {
        (block[q], e): block[comp.transitions[(q, e)]]
        for q in comp.states
        for e in comp.alphabet.events
    }
    live: set[int] = set(marked_classes)
    changed = True
    while changed:
        changed = False
        for (c, _e), d in trans_classes.items():
            if d in live and c not in live:
                live.add(c)
                changed = True
    init_class = block[comp.initial]
    if init_class not in live:
        return empty_dfa(dfa.alphabet)
    names = {init_class: "0"}
    queue = deque([init_class])
    transitions: dict[tuple[str, str], str] = {}
    while queue:
        c = queue.popleft()
        for e in comp.alphabet.events:
            d = trans_classes[(c, e)]
            if d not in live:
                continue
            if d not in names:
                names[d] = str(len(names))
                queue.append(d)
            transitions[(names[c], e)] = names[d]
    states = tuple(names.values())
    marked = frozenset(names[c] for c in names if c in marked_classes)
    return Dfa(states, dfa.alphabet, "0", transitions, marked)


def _reference_pair(a: Dfa, b: Dfa) -> Dfa:
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


def reference_compose(dfas: Sequence[Dfa]) -> Dfa:
    """The pairwise route, the reference for :func:`cosynth.automata.parallel_compose_all`.

    Folds from the left a breadth-first walk over pairs of named states, each
    pair named "⟨left,right⟩", over the union alphabet with events in operand
    order.  One operand is returned as it is.
    """
    result = dfas[0]
    for other in dfas[1:]:
        result = _reference_pair(result, other)
    return result


def reference_satisfies(m: Dfa, p: Dfa) -> Word | None:
    """The string-keyed route, the reference for
    :func:`cosynth.automata.product_violation` and :func:`cosynth.langops.satisfies`.

    Walks m and p together breadth first over pairs of named states, events
    in m's order, and returns the first accepted m-word whose p component is
    unmarked (None if there is none); p's missing transitions lead to an
    implicit, absorbing, unmarked sink (None).  Requires Σ_P ⊆ Σ_M.
    """
    prop_events = set(p.alphabet.events)
    start = (m.initial, p.initial)
    if m.initial in m.marked and p.initial not in p.marked:
        return ()
    seen = {start}
    queue: deque[tuple[tuple[str, str | None], Word]] = deque([(start, ())])
    while queue:
        (qm, qp), word = queue.popleft()
        for e in m.alphabet.events:
            nm = m.transitions.get((qm, e))
            if nm is None:
                continue
            np_ = p.transitions.get((qp, e)) if e in prop_events else qp
            w = word + (e,)
            if nm in m.marked and np_ not in p.marked:
                return w
            nxt = (nm, np_)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w))
    return None


def reference_language_subset(a: Dfa, b: Dfa) -> Optional[Word]:
    """The string-keyed pair walk, the reference for
    :func:`cosynth.automata.language_subset`: None if L_m(a) ⊆ L_m(b), else
    the shortest, lexicographically least witness in a's event order."""
    if set(a.alphabet.events) != set(b.alphabet.events):
        raise InputError("language comparison requires identical event sets")
    # b's missing transitions lead to an implicit, absorbing, unmarked sink: None
    start = (a.initial, b.initial)
    if a.initial in a.marked and b.initial not in b.marked:
        return EPSILON
    edges = _out_edges(a)
    seen = {start}
    queue: deque[tuple[tuple[str, Optional[str]], Word]] = deque([(start, EPSILON)])
    while queue:
        (qa, qb), word = queue.popleft()
        for _, e, na in edges.get(qa, ()):
            nb = b.transitions.get((qb, e))
            w = word + (e,)
            if na in a.marked and nb not in b.marked:
                return w
            nxt = (na, nb)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w))
    return None


# -- the tabled property walks, the references for the stepping ones ---------


def reference_product(dfas: Sequence[Dfa]) -> tuple[tuple[str, ...], tuple[str, ...],
                                                     Callable[[tuple[str, ...]], list],
                                                     Callable[[tuple[str, ...]], bool]]:
    """The synchronous product of *dfas* over tuples of operand state names,
    stepped through each operand's own transitions: the union events in
    operand order, the initial tuple, the (event index, next tuple) moves of
    a tuple in event order, and whether every operand is marked in a tuple."""
    events = tuple(dict.fromkeys(e for dfa in dfas for e in dfa.alphabet.events))
    owners = [[i for i, dfa in enumerate(dfas) if e in dfa.alphabet] for e in events]

    def moves(t: tuple[str, ...]) -> list[tuple[int, tuple[str, ...]]]:
        out = []
        for a, e in enumerate(events):
            nxt = list(t)
            for i in owners[a]:
                nxt[i] = dfas[i].transitions.get((t[i], e))
                if nxt[i] is None:
                    break
            else:
                out.append((a, tuple(nxt)))
        return out

    def is_marked(t: tuple[str, ...]) -> bool:
        return all(q in dfa.marked for q, dfa in zip(t, dfas))

    return events, tuple(dfa.initial for dfa in dfas), moves, is_marked


def reference_property_table(prop: Dfa) -> tuple[int, dict[str, list[int]], list[bool]]:
    """The property's initial state number, for each of its events the next
    state number by state number, and whether each state is marked; state
    ``len(prop.states)`` is the implicit, absorbing, unmarked sink."""
    sink = len(prop.states)
    number = {q: i for i, q in enumerate(prop.states)}
    columns = {e: [sink] * (sink + 1) for e in prop.alphabet.events}
    for (src, e), dst in prop.transitions.items():
        columns[e][number[src]] = number[dst]
    return number[prop.initial], columns, [q in prop.marked for q in prop.states] + [False]


def reference_tabled_violation(dfas: Sequence[Dfa], prop: Dfa) -> tuple[Optional[Word], int]:
    """The violation walk over named operand tuples and the property's
    integer table, the reference for :func:`cosynth.automata.product_violation`:
    the same breadth-first walk, with the property states numbered and the
    sink one more number, that counts the tuples whose moves it listed."""
    events, initial, moves, is_marked = reference_product(dfas)
    prop_initial, columns, prop_marked = reference_property_table(prop)
    prop_columns = [columns.get(e) for e in events]
    start = (initial, prop_initial)
    if is_marked(initial) and not prop_marked[prop_initial]:
        return EPSILON, 0
    expanded: set[tuple[str, ...]] = set()
    parent: dict[tuple[tuple[str, ...], int], Optional[tuple]] = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        t, qp = pair
        expanded.add(t)
        for a, nt in moves(t):
            column = prop_columns[a]
            np_ = qp if column is None else column[qp]
            if not prop_marked[np_] and is_marked(nt):
                word = [events[a]]
                while parent[pair] is not None:
                    pair, a = parent[pair]
                    word.append(events[a])
                return tuple(reversed(word)), len(expanded)
            nxt = (nt, np_)
            if nxt not in parent:
                parent[nxt] = (pair, a)
                queue.append(nxt)
    return None, len(expanded)


@dataclass
class DfaTeacher:
    """L* teacher backed by a target DFA: the learner's reference session."""

    target: Dfa
    equivalence_queries: int = 0

    def membership(self, word: Word) -> int:
        return 1 if accepts(self.target, word) else 0

    def conjecture(self, dfa: Dfa) -> Optional[Word]:
        self.equivalence_queries += 1
        return language_equal(dfa, self.target)

    @property
    def generation(self) -> int:
        return 0


def reference_mission(components: Sequence[Dfa], alphabet: EventAlphabet) -> Dfa:
    """The pairwise route, the reference for :func:`cosynth.automata.minimal_product`.

    Composes the components pairwise into a string-named product, widens it
    to the alphabet and minimises it.
    """
    return minimize(widen_alphabet(reference_compose(components), alphabet))


def reference_decompose(components: Sequence[Dfa], agent_alphabets: Sequence[EventAlphabet],
                        global_alphabet: EventAlphabet) -> list[Dfa]:
    """The monolithic route, the reference for :func:`cosynth.langops.decompose`.

    Composes the components into the mission, minimises it over the global
    alphabet and projects it once per agent.
    """
    mission = reference_mission(components, global_alphabet)
    return [widen_like(project(mission, a.events), a) for a in agent_alphabets]


def extend_closure(dfa: Dfa) -> Dfa:
    """Accepts { w : some prefix of w is accepted by *dfa* } (L_m(dfa)·Σ*): the
    completed automaton with a flag that records whether an accepted prefix
    has been read."""
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


def reference_supc_closed_form(spec: Dfa, plant_gen: Dfa, alphabet: EventAlphabet) -> Dfa:
    """The closed form K − [(L(G) − K)/Σ_uc*]Σ* (Wonham and Ramadge, 1987), built
    from complements, products and a quotient; the reference for
    :func:`cosynth.langops.sup_c`.

    *spec* is a prefix-closed K ⊆ L(G) and *plant_gen* accepts L(G), both
    over *alphabet*.
    """
    uncontrollable = {("0", e): "0" for e in alphabet.events if e in alphabet.uncontrollable}
    uncontrollable_star = Dfa(("0",), alphabet, "0", uncontrollable, frozenset(("0",)))
    illegal = subtract(plant_gen, spec)
    stripped = quotient(illegal, uncontrollable_star)
    cut = extend_closure(stripped)
    return minimize(subtract(spec, cut))


def _uncontrollable_step(alphabet: EventAlphabet) -> Dfa:
    """DFA accepting exactly the length-one uncontrollable words."""
    transitions = {("0", e): "1" for e in alphabet.events if e in alphabet.uncontrollable}
    return Dfa(("0", "1"), alphabet, "0", transitions, frozenset(("1",)))


def reference_supc_fixed_point(spec: Dfa, plant_gen: Dfa, alphabet: EventAlphabet) -> Dfa:
    """The fixed point K_{j+1} = K_j − [(L(G) − K_j)/Σ_uc]Σ*, iterated from
    K_0 = K; the other reference for :func:`cosynth.langops.sup_c`.

    Arguments as for :func:`reference_supc_closed_form`.
    """
    bound = len(spec.states) * len(plant_gen.states) + 1
    step = _uncontrollable_step(alphabet)
    current = spec
    for _ in range(bound):
        illegal = subtract(plant_gen, current)
        stripped = quotient(illegal, step)
        cut = extend_closure(stripped)
        nxt = minimize(subtract(current, cut))
        if language_equal(nxt, current) is None:
            return nxt
        current = nxt
    raise InvariantError(f"supC fixed point did not stabilise within {bound} iterations")


def d_ui(
    illegal: "IllegalBehaviorSet | Sequence[Word]",
    plant_member: Callable[[Word], bool],
    alphabet: EventAlphabet,
) -> set[Word]:
    """Plant words obtained by stripping an uncontrollable suffix (possibly empty)
    from some uncontrollably illegal word."""
    words = illegal.words if isinstance(illegal, IllegalBehaviorSet) else list(illegal)
    uncontrollable = alphabet.uncontrollable
    out: set[Word] = set()
    for w in words:
        cut = len(w)
        while True:
            prefix = w[:cut]
            if plant_member(prefix):
                out.add(prefix)
            if cut == 0 or w[cut - 1] not in uncontrollable:
                break
            cut -= 1
    return out


def ls_membership(
    t: Word,
    round_j: int,
    spec: Dfa,
    illegal: "IllegalBehaviorSet | Sequence[Word]",
    plant_member: Callable[[Word], bool],
) -> int:
    """Membership rule of the supervisor learner, unrolled across rounds.

    Round 1 answers membership in the mission language; later rounds also
    reject anything with a prefix in D_ui(C).  The cuts only ever turn
    answers from 1 to 0, so the unrolled form matches the recursive one.
    """
    if not accepts(spec, t):
        return 0
    if round_j <= 1:
        return 1
    stripped = d_ui(illegal, plant_member, spec.alphabet)
    for cut in range(len(t) + 1):
        if t[:cut] in stripped:
            return 0
    return 1


def reference_class_cut_k(teacher) -> Dfa:
    """K_j of a supervisor teacher, built from its condemned classes by the
    string route; the reference for
    :meth:`cosynth.synthesis.SupervisorTeacher._record`.

    Completes the teacher's plant and spec (the teacher's own walks send a
    missing move to the sink ``None`` instead), names the pairs of the
    completions "g|l", marks the condemned ones, extends them to every
    continuation and subtracts the result from the spec.
    """
    plant, _ = complete(teacher.plant)
    specc, _ = complete(teacher.spec)
    marked = set()
    order = [(plant.initial, specc.initial)]
    seen = {order[0]}
    transitions: dict[tuple[str, str], str] = {}
    queue = list(order)
    while queue:
        g, l = queue.pop()
        for e in teacher.alphabet.events:
            nxt = (plant.transitions[(g, e)], specc.transitions[(l, e)])
            transitions[(f"{g}|{l}", e)] = f"{nxt[0]}|{nxt[1]}"
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    for g, l in seen:
        if (g, l) in teacher._condemned:
            marked.add(f"{g}|{l}")
    product = Dfa(
        tuple(f"{g}|{l}" for g, l in order),
        teacher.alphabet,
        f"{plant.initial}|{specc.initial}",
        transitions,
        frozenset(marked),
    )
    return minimize(subtract(teacher.spec, extend_closure(product)))


def reference_check_triple(assumption: Dfa, module: Dfa, prop: Dfa) -> Optional[Word]:
    """None if the assume-guarantee triple ⟨A⟩ M ⟨P⟩ holds; else the
    shortest word reaching the error state: a string-keyed walk over the
    completed property.

    The assumption and module act as prefix constraints (their runnable
    behaviour restricted to prefixes of accepted words), the property is
    completed and violated exactly when its component leaves the accepted
    region.
    """
    a = prefix_closure(assumption)
    comp, _ = complete(prop)
    alphabet = assumption.alphabet.union(module.alphabet).union(prop.alphabet)
    in_a = {e: e in a.alphabet for e in alphabet.events}
    in_m = {e: e in module.alphabet for e in alphabet.events}
    in_p = {e: e in prop.alphabet for e in alphabet.events}
    start = (a.initial, module.initial, comp.initial)
    if comp.initial not in prop.marked:
        return EPSILON
    seen = {start}
    queue: deque[tuple[tuple[str, str, str], Word]] = deque([(start, EPSILON)])
    while queue:
        (qa, qm, qp), word = queue.popleft()
        for e in alphabet.events:
            na = a.transitions.get((qa, e)) if in_a[e] else qa
            nm = module.transitions.get((qm, e)) if in_m[e] else qm
            if (in_a[e] and na is None) or (in_m[e] and nm is None):
                continue
            np_ = comp.transitions[(qp, e)] if in_p[e] else qp
            w = word + (e,)
            if np_ not in prop.marked:
                return w
            nxt = (na, nm, np_)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w))
    return None


def cv_membership(t: Word, module: Dfa, prop: Dfa, interface: EventAlphabet) -> int:
    """1 iff the prefixes of t, as an assumption, keep the module inside the
    property: membership in the weakest assumption, one triple per word."""
    return 1 if reference_check_triple(word_dfa(t, interface), module, prop) is None else 0


def reference_weakest_assumption(module: Dfa, prop: Dfa, interface: EventAlphabet) -> Dfa:
    """The weakest assumption from a string-named product of the module and
    the completed property, scanning the alphabet for every pair; the
    reference for :func:`cosynth.verification.weakest_assumption`.
    """
    alphabet = module.alphabet.union(prop.alphabet)
    for e in interface.events:
        if e not in alphabet:
            raise InputError(f"interface event {e!r} unknown to module and property")
    comp, _ = complete(prop)
    in_m = {e: e in module.alphabet for e in alphabet.events}
    in_p = {e: e in prop.alphabet for e in alphabet.events}
    interface_set = set(interface.events)

    # product of the module (as a prefix constraint) with the completed
    # property, with transition labels projected onto the interface
    nfa: dict[tuple[str, Optional[str]], set[str]] = {}
    start = (module.initial, comp.initial)
    order = [start]
    seen = {start}
    queue = deque(order)
    accepting: set[str] = set()

    def name(qm: str, qp: str) -> str:
        return f"{qm}|{qp}"

    if comp.initial not in prop.marked:
        accepting.add(name(*start))
    while queue:
        qm, qp = queue.popleft()
        if qp not in prop.marked:
            continue  # violation is absorbing for the trigger set
        for e in alphabet.events:
            nm = module.transitions.get((qm, e)) if in_m[e] else qm
            if in_m[e] and nm is None:
                continue
            np_ = comp.transitions[(qp, e)] if in_p[e] else qp
            label = e if e in interface_set else None
            nfa.setdefault((name(qm, qp), label), set()).add(name(nm, np_))
            nxt = (nm, np_)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                if np_ not in prop.marked:
                    accepting.add(name(nm, np_))
    bad = _determinize(nfa, {name(*start)}, accepting, interface)
    return minimize(complement(extend_closure(bad)))


def reference_tabled_weakest_assumption(module: Dfa, prop: Dfa,
                                        interface: EventAlphabet) -> Dfa:
    """The weakest assumption from the walk of named operand tuples next to
    the property's integer table, the reference for
    :func:`cosynth.verification.weakest_assumption`."""
    for e in interface.events:
        if e not in module.alphabet and e not in prop.alphabet:
            raise InputError(f"interface event {e!r} unknown to module and property")
    events, initial, moves, _ = reference_product(_with_free_events([module], prop))
    prop_initial, columns, prop_marked = reference_property_table(prop)
    steps = [(columns.get(e), e if e in interface else None) for e in events]
    start = (initial, prop_initial)
    nfa: dict[tuple[tuple, Optional[str]], set[tuple]] = {}
    order = [start]
    seen = {start}
    for pair in order:
        t, qp = pair
        if not prop_marked[qp]:
            continue  # violation is absorbing for the trigger set
        for a, nt in moves(t):
            column, label = steps[a]
            nxt = (nt, qp if column is None else column[qp])
            nfa.setdefault((pair, label), set()).add(nxt)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    accepting = {pair for pair in order if not prop_marked[pair[1]]}
    bad = _determinize(nfa, {start}, accepting, interface)
    return minimize(complement(extend_closure(bad)))


# -- case-study definitions, transcribed from the coordination scenario -----

AGENT1_EVENTS = ("Close", "D1close", "D1open", "G1inR1", "G1inR3", "G2inR1", "Open", "h1", "r")
AGENT2_EVENTS = ("D1open", "F", "G2inR1", "h2", "r")
AGENT3_EVENTS = ("Close", "D1close", "D1open", "G2inR1", "G3inR1", "G3inR3", "Open", "h3", "r")
AGENT1_UC = frozenset({"G2inR1", "h1"})
AGENT2_UC = frozenset({"D1open", "h2"})
AGENT3_UC = frozenset({"G2inR1", "h3"})

STAY1 = ("h1", "G1inR1", "Open", "D1open", "G2inR1", "Close", "D1close", "r")
GO1 = ("h1", "G1inR3", "Open", "D1open", "G2inR1", "Close", "D1close", "G1inR1", "r")
STAY3 = ("h3", "G3inR1", "Open", "D1open", "G2inR1", "Close", "D1close", "r")
GO3 = ("h3", "G3inR3", "Open", "D1open", "G2inR1", "Close", "D1close", "G3inR1", "r")
FIRE2 = ("h2", "F", "D1open", "G2inR1", "r")

REGIONS = ("R1", "R2", "R3")


def agent_alphabets() -> tuple[EventAlphabet, EventAlphabet, EventAlphabet]:
    return (
        EventAlphabet(AGENT1_EVENTS, frozenset(AGENT1_EVENTS) - AGENT1_UC),
        EventAlphabet(AGENT2_EVENTS, frozenset(AGENT2_EVENTS) - AGENT2_UC),
        EventAlphabet(AGENT3_EVENTS, frozenset(AGENT3_EVENTS) - AGENT3_UC),
    )


def branching_mission(first: str, branch_a: Sequence[str], branch_b: Sequence[str],
                      alphabet: EventAlphabet) -> Dfa:
    """Cycle with a two-way branch after the first event."""
    states = ["s0", "s1"]
    transitions = {("s0", first): "s1"}
    for prefix, branch in (("a", branch_a), ("b", branch_b)):
        previous = "s1"
        for i, e in enumerate(branch):
            nxt = "s0" if i == len(branch) - 1 else f"{prefix}{i + 1}"
            if nxt != "s0":
                states.append(nxt)
            transitions[(previous, e)] = nxt
            previous = nxt
    return Dfa(tuple(states), alphabet, "s0", transitions, frozenset(states))


@pytest.fixture(scope="session")
def casestudy():
    """Pipeline config, mission DFA, components, and decomposed specs for the case study."""
    from cosynth.automata import load_dfa
    from cosynth.fixtures import fixture_path
    from cosynth.pipeline import PipelineConfig, global_alphabet_of

    config = PipelineConfig.load(fixture_path("casestudy.cfg"))
    alphabets = [a.alphabet for a in config.agents]
    global_alphabet = global_alphabet_of(config.agents)
    components = [load_dfa(p) for p in config.mission_paths]
    mission = reference_mission(components, global_alphabet)
    specs = reference_decompose(components, alphabets, global_alphabet)
    return {
        "config": config,
        "alphabets": alphabets,
        "global_alphabet": global_alphabet,
        "components": components,
        "mission": mission,
        "specs": specs,
    }


def validate_integrated_clauses(lp: Dfa, pi: LabelingMap, initial_region: str) -> None:
    """Check that a plan starts in its initial region and fires events where π allows.

    A mission event right after a region symbol must be labelled with that
    region; one right after another mission event must share a region with
    it.  The walk visits every reachable (state, last symbol) pair once, so
    it covers plans of any length.  Raises InvariantError on failure.
    """
    regions = set(pi.regions)
    edges = _out_edges(lp)
    for _, e, _ in edges.get(lp.initial, ()):
        if e != initial_region:
            raise InvariantError(f"plan must start with the initial region, found {e!r}")
    start: tuple[str, Optional[str]] = (lp.initial, None)
    seen = {start}
    queue = deque([start])
    while queue:
        state, previous = queue.popleft()
        for _, e, to in edges.get(state, ()):
            if e not in regions and previous is not None:
                if previous in regions:
                    if previous not in pi.of(e):
                        raise InvariantError(
                            f"event {e!r} fired in region {previous!r} outside π({e!r})"
                        )
                elif not pi.of(previous) & pi.of(e):
                    raise InvariantError(
                        f"consecutive events {previous!r},{e!r} disagree on their region"
                    )
            if (to, e) not in seen:
                seen.add((to, e))
                queue.append((to, e))


# -- replanning reference: bridge each enumerated plan word, rebuild a trie --


def reference_run_language(motion: Dfa, stutter: bool, regions: Optional[Sequence[str]] = None) -> Dfa:
    """Region words realisable as runs of the motion automaton.

    With ``stutter`` the agent may repeat its current region (dwell);
    without it every consecutive region pair must be door-connected.
    The empty word is always included.  ``regions`` may name a larger
    alphabet than the motion model reaches (unreachable regions then have
    no runs).
    """
    if regions is None:
        regions = motion.states
    elif not set(motion.states) <= set(regions):
        raise InputError("the region alphabet must cover the motion model's states")
    alphabet = EventAlphabet(tuple(regions))
    regions = motion.states
    start = "@start"
    transitions: dict[tuple[str, str], str] = {(start, motion.initial): motion.initial}
    steps = {(v, motion.transitions[(v, d)]) for (v, d) in motion.transitions}
    for v, v2 in steps:
        transitions[(v, v2)] = v2
    if stutter:
        for v in regions:
            transitions[(v, v)] = v
    return Dfa((start,) + regions, alphabet, start, transitions,
               frozenset((start,) + regions))


# -- named routes that the integer walks replaced, kept verbatim -------------
# Each builds a named intermediate automaton for ``minimize`` or ``trim`` to
# re-read; the production walks must give byte-identical automata.


def reference_determinize(
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

    # each NFA state's labelled moves, which a subset groups by event index
    event_index = alphabet._index  # type: ignore[attr-defined]
    labelled: dict[str, list[tuple[int, set[str]]]] = {}
    for (q, e), targets in nfa.items():
        if e in event_index:
            labelled.setdefault(q, []).append((event_index[e], targets))
    events = alphabet.events
    start = closure(frozenset(initials))
    order = [start]
    index = {start: "0"}
    transitions: dict[tuple[str, str], str] = {}
    for cur in order:
        moved: dict[int, set[str]] = {}
        for q in cur:
            for a, targets in labelled.get(q, ()):
                if a in moved:
                    moved[a] |= targets
                else:
                    moved[a] = set(targets)
        for a in sorted(moved):
            if not moved[a]:
                continue
            nxt = closure(frozenset(moved[a]))
            if nxt not in index:
                index[nxt] = str(len(index))
                order.append(nxt)
            transitions[(index[cur], events[a])] = index[nxt]
    states = tuple(index[s] for s in order)
    accept = frozenset(index[s] for s in order if s & marked)
    return Dfa(states, alphabet, index[start], transitions, accept)


def reference_interleave(mission: Dfa, pi: LabelingMap, initial_region: str) -> Dfa:
    """Insert region symbols in front of the mission events they relocate.

    The construction tracks the agent's region through the mission
    automaton.  A mission event doable in the current region keeps the
    region; otherwise a committed region move is inserted first.  Reaching
    the mission's initial state back in the initial region closes the loop
    through the plan's entry state, which re-asserts the initial region at
    every mission cycle.
    """
    regions = pi.regions
    if set(regions) & set(mission.alphabet.events):
        raise InputError("region labels collide with mission events")
    for e in mission.alphabet.events:
        pi.of(e)  # raises for unlabelled events
    alphabet = EventAlphabet(
        tuple(regions) + tuple(mission.alphabet.events),
        frozenset(regions) | mission.alphabet.controllable,
    )
    entry = "entry"
    home = (mission.initial, initial_region)

    def node(q: str, v: str) -> str:
        return f"{q}@{v}"

    def move_node(q: str, v: str, v2: str) -> str:
        return f"{q}@{v}>{v2}"

    mission_edges = _out_edges(mission)
    transitions: dict[tuple[str, str], str] = {(entry, initial_region): node(*home)}
    states = {entry, node(*home)}
    queue = deque([home])
    seen = {home}

    def target(q2: str, v2: str) -> str:
        if (q2, v2) == home:
            return entry
        pair = (q2, v2)
        if pair not in seen:
            seen.add(pair)
            queue.append(pair)
        return node(q2, v2)

    while queue:
        q, v = queue.popleft()
        src = node(q, v)
        moves: dict[str, list[tuple[str, str]]] = {}
        for _, e, q2 in mission_edges.get(q, ()):
            placements = pi.ordered(e)
            if v in placements:
                transitions[(src, e)] = target(q2, v)
            for v2 in placements:
                if v2 != v:
                    moves.setdefault(v2, []).append((e, q2))
        for v2, steps in moves.items():
            mid = move_node(q, v, v2)
            states.add(mid)
            transitions[(src, v2)] = mid
            for e, q2 in steps:
                transitions[(mid, e)] = target(q2, v2)
    states |= {node(q, v) for q, v in seen}
    ordered = (entry,) + tuple(sorted(states - {entry}))
    dfa = Dfa(ordered, alphabet, entry, transitions, frozenset(ordered))
    return trim(dfa)


def reference_is_live(dfa: Dfa) -> bool:
    """True if the trimmed automaton still contains a cycle (unbounded behaviour)."""
    t = trim(dfa)
    successors = {q: [] for q in t.states}
    for (q, _e), nxt in t.transitions.items():
        successors[q].append(nxt)
    color: dict[str, int] = {}
    for root in t.states:
        if root in color:
            continue
        color[root] = 1
        stack = [(root, iter(successors[root]))]
        while stack:
            q, pending = stack[-1]
            for nxt in pending:
                c = color.get(nxt, 0)
                if c == 1:
                    return True
                if c == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(successors[nxt])))
                    break
            else:
                color[q] = 2
                stack.pop()
    return False


def reference_cut_behavior(plan: Dfa, w: Word) -> Dfa:
    """Remove the local decision that ends the observed word w.

    On the minimal plan automaton the states are observational equivalence
    classes, so deleting the transition taken by the final event of w
    removes w together with every behaviour the agent cannot distinguish
    from it, in particular the same decision at every later mission
    cycle, which plain word subtraction would leave open.
    """
    if not w:
        raise InputError("cannot cut the empty observation")
    m = minimize(plan)
    state = m.initial
    for symbol in w[:-1]:
        state = m.transitions[(state, symbol)]
    transitions = dict(m.transitions)
    del transitions[(state, w[-1])]
    cut = Dfa(m.states, m.alphabet, m.initial, transitions, m.marked)
    return minimize(prefix_close_largest(cut))


def reference_motion_dfa(env: Environment, initial_region: str) -> Dfa:
    """Trim DFA over doors: one state per region, moves follow the door map."""
    if initial_region not in env.regions:
        raise InputError(f"initial region {initial_region!r} not in the environment")
    transitions: dict[tuple[str, str], str] = {}
    for (v, v2), doors in env.door_map.items():
        for d in doors:
            existing = transitions.get((v, d))
            if existing is not None and existing != v2:
                raise InputError(f"door {d!r} leads from {v!r} to both {existing!r} and {v2!r}")
            transitions[(v, d)] = v2
    alphabet = EventAlphabet(env.doors, frozenset(env.doors))
    dfa = Dfa(env.regions, alphabet, initial_region, transitions, frozenset(env.regions))
    return trim(dfa)


def reference_door_profile(motion_plan: Dfa, motion: Dfa) -> Dfa:
    """Door words whose strict runs trace a region word of the motion plan.

    The motion plan must lie within the stutter-closed runs of ``motion``:
    :func:`reference_integrate` and :func:`reference_replan` check that
    before they call this, except on a spliced plan, which meets it by
    construction.
    """
    p0 = motion_plan.transitions.get((motion_plan.initial, motion.initial))
    if p0 is None or p0 not in motion_plan.marked:
        return empty_dfa(motion.alphabet)
    motion_edges = _out_edges(motion)
    start = (motion.initial, p0)
    order = [start]
    seen = {start}
    transitions: dict[tuple[str, str], str] = {}
    queue = deque(order)

    def name(v: str, p: str) -> str:
        return f"{v}|{p}"

    while queue:
        v, p = queue.popleft()
        for _, d, v2 in motion_edges.get(v, ()):
            p2 = motion_plan.transitions.get((p, v2))
            if p2 is None or p2 not in motion_plan.marked:
                continue
            transitions[(name(v, p), d)] = name(v2, p2)
            if (v2, p2) not in seen:
                seen.add((v2, p2))
                order.append((v2, p2))
                queue.append((v2, p2))
    states = tuple(name(v, p) for v, p in order)
    dfa = Dfa(states, motion.alphabet, name(*start), transitions, frozenset(states))
    return minimize(dfa)


def reference_motion_gap(motion_plan: Dfa, motion: Dfa) -> Optional[tuple[str, str]]:
    """The first region change of the motion plan that ``motion`` cannot make,
    from the steps of the motion automaton itself, one walk per model."""
    steps = {(v, v2) for (v, _), v2 in motion.transitions.items()}
    for (_, v), e, _ in _region_edges(motion_plan, set(motion_plan.alphabet.events)):
        if v is None:
            if e != motion.initial:
                return motion.initial, e
        elif e != v and (v, e) not in steps:
            return v, e
    return None


def reference_replan(lp: IntegratedPlan, nominal_motion: Dfa,
                     real_env: Environment) -> IntegratedPlan:
    """Replanning through the real motion automaton.

    Builds :func:`reference_motion_dfa` of the real environment from v0,
    walks the motion plan once against it, and profiles the kept or spliced
    plan on it with :func:`reference_door_profile`.  The nominal model
    serves the containment check alone.  The checks and the splice come in
    the order :func:`cosynth.motion.replan` makes them.
    """
    if not (set(nominal_motion.states) <= set(real_env.regions) <= set(lp.labeling.regions)
            and set(nominal_motion.alphabet.events) <= set(real_env.doors)):
        raise InputError("real environment must share regions and doors with the nominal model")
    real = reference_motion_dfa(real_env, lp.initial_region)
    if reference_motion_gap(lp.motion_plan, real) is None:
        return IntegratedPlan(lp.agent, lp.dfa, lp.mission, lp.motion_plan,
                              reference_door_profile(lp.motion_plan, real), lp.initial_region,
                              lp.labeling)
    new_dfa = reference_splice(lp.dfa, set(lp.labeling.regions), real_env)
    motion_plan = project(new_dfa, lp.labeling.regions)
    return IntegratedPlan(lp.agent, new_dfa, lp.mission, motion_plan,
                          reference_door_profile(motion_plan, real), lp.initial_region, lp.labeling)


def reference_integrate(mission: Dfa, pi: LabelingMap, initial_region: str, env: Environment,
                        agent: str = "agent") -> IntegratedPlan:
    """Integration through the agent's motion automaton.

    Interleaves the mission with :func:`reference_interleave`, then walks
    the motion plan against :func:`reference_motion_dfa` of the environment
    from the initial region and profiles it there with
    :func:`reference_door_profile`; the reference for
    :func:`cosynth.motion.integrate`, which walks the environment's door map
    and door moves.
    """
    motion = reference_motion_dfa(env, initial_region)
    lp = reference_interleave(mission, pi, initial_region)
    motion_plan = project(lp, pi.regions)
    gap = reference_motion_gap(motion_plan, motion)
    if gap is not None:
        raise MotionInfeasible(gap)
    return IntegratedPlan(agent, lp, mission, motion_plan,
                          reference_door_profile(motion_plan, motion), initial_region, pi)


def reference_splice(dfa: Dfa, regions: set[str], real_env: Environment) -> Dfa:
    """The splice with hand-numbered nodes, the reference for :func:`cosynth.motion._splice`.

    Each product edge ``cur → e`` whose regions lost all their doors becomes
    a fresh chain through the intermediate regions of the shortest real path
    from ``cur`` to ``e``.  An inserted region may collide with a region edge
    already leaving the same state, so the chains form an NFA whose subsets,
    numbered by the subset construction, go straight to the integer core of
    :func:`cosynth.automata.minimize`.
    """
    successors = _open_successors(real_env)
    names: dict[_Node, str] = {}

    def name(node: _Node) -> str:
        if node not in names:
            names[node] = f"p{len(names)}"
        return names[node]

    nfa: dict[tuple[str, str], set[str]] = {}
    paths: dict[tuple[str, str], list[str]] = {}
    chain: list[str] = []
    initial = name((dfa.initial, None))
    for node, e, nxt in _region_edges(dfa, regions):
        src, v = name(node), node[1]
        if _door_lost(real_env, regions, v, e):
            pair = (v, e)
            if pair not in paths:
                path = _shortest_region_path(successors, *pair)
                if path is None:
                    raise ReplanInfeasible(pair)
                paths[pair] = path
            for mid in paths[pair][1:-1]:
                hop = f"c{len(chain)}"
                chain.append(hop)
                nfa.setdefault((src, mid), set()).add(hop)
                src = hop
        nfa.setdefault((src, e), set()).add(name(nxt))
    marked = {names[node] for node in names if node[0] in dfa.marked} | set(chain)
    order, succ = _subset_walk(nfa, {initial}, dfa.alphabet)
    return _minimize_numbered(succ, [not s.isdisjoint(marked) for s in order], dfa.alphabet)


def shortest_real_path(env, source: str, target: str):
    """Breadth-first region path through doors that remain, ties broken by name."""
    parents = {source: None}
    frontier = [source]
    while frontier:
        if target in parents:
            break
        nxt = []
        for v in frontier:
            for v2 in sorted(b for (a, b), doors in env.door_map.items() if a == v and doors):
                if v2 not in parents:
                    parents[v2] = v
                    nxt.append(v2)
        frontier = nxt
    if target not in parents:
        return None
    path = [target]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return path[::-1]


def plan_words(dfa: Dfa) -> list[tuple[list[str], int | None]]:
    """Every maximal simple path of a plan, depth first in alphabet order.

    A path that re-enters one of its own states ends there and records the
    prefix length it loops back to; a path at a dead end records None.
    """
    words: list[tuple[list[str], int | None]] = []
    path: list[str] = []
    positions = {dfa.initial: 0}
    stack = [(dfa.initial, iter(dfa.alphabet.events), [False])]
    while stack:
        state, events, extended = stack[-1]
        for e in events:
            nxt = dfa.transitions.get((state, e))
            if nxt is None:
                continue
            extended[0] = True
            if nxt in positions:
                words.append((path + [e], positions[nxt]))
                continue
            positions[nxt] = len(path) + 1
            path.append(e)
            stack.append((nxt, iter(dfa.alphabet.events), [False]))
            break
        else:
            if not extended[0]:
                words.append((list(path), None))
            stack.pop()
            if stack:
                del positions[state]
                path.pop()
    return words


def reference_replan_dfa(lp, real_env) -> Dfa:
    """The replanned plan automaton, built word by word.

    Each plan word gets the shortest real path spliced in front of every
    region change that lost all its doors; the bridged words form a trie
    whose loop edges are restored before minimisation.  Returns the plan
    unchanged when no word needed a bridge and raises ``ReplanInfeasible``
    when a bridge does not exist.

    A word that loops back continues from the trie node of the state it
    re-enters, so the region it loops back from is lost.  That is sound for
    integrated plans, which re-enter their entry state only from the initial
    region, but not for an arbitrary minimised plan.
    """
    regions = set(lp.labeling.regions)
    rebuilt = []
    changed = False
    for symbols, loop_to in plan_words(lp.dfa):
        out: list[str] = []
        offsets = {0: 0}
        current = None
        for i, symbol in enumerate(symbols):
            if symbol in regions and current is not None and symbol != current:
                if not real_env.doors_between(current, symbol):
                    path = shortest_real_path(real_env, current, symbol)
                    if path is None:
                        raise ReplanInfeasible((current, symbol))
                    out.extend(path[1:-1])
                    changed = True
            out.append(symbol)
            if symbol in regions:
                current = symbol
            offsets[i + 1] = len(out)
        rebuilt.append((out, None if loop_to is None else offsets[loop_to]))
    if not changed:
        return lp.dfa
    states = ["n0"]
    children: dict[tuple[str, str], str] = {}
    transitions: dict[tuple[str, str], str] = {}
    for symbols, loop_to in rebuilt:
        nodes = ["n0"]
        for i, symbol in enumerate(symbols):
            if i == len(symbols) - 1 and loop_to is not None:
                transitions[(nodes[-1], symbol)] = nodes[loop_to]
                break
            child = children.get((nodes[-1], symbol))
            if child is None:
                child = children[(nodes[-1], symbol)] = f"n{len(states)}"
                states.append(child)
            transitions[(nodes[-1], symbol)] = child
            nodes.append(child)
    return minimize(Dfa(tuple(states), lp.dfa.alphabet, "n0", transitions, frozenset(states)))


def reference_simulate(
    plans, env: Environment, schedule: Sequence[tuple[int, str, str]] = (),
    max_steps: int = 200, stop_event: Optional[str] = None,
) -> SimulationResult:
    """The simulator that scans every mission event, in sorted order, and
    asks each of its owners for a move on every step; the reference for
    :func:`cosynth.motion.simulate`, which picks the event from the walkers'
    own moves."""
    doors_open: dict[str, bool] = {d: True for d in env.doors}
    timetable: dict[int, list[tuple[str, str]]] = {}
    for step_at, door, state in schedule:
        if door not in doors_open:
            raise InputError(f"schedule mentions unknown door {door!r}")
        if state not in ("open", "closed"):
            raise InputError(f"door state must be open or closed, got {state!r}")
        timetable.setdefault(step_at, []).append((door, state))

    if not plans:
        return SimulationResult([], True)
    walkers = [
        _Walker(lp, lp.dfa.initial, *_plan_moves(lp), believed=dict(env.door_map))
        for lp in plans
    ]
    nominal_motions = [motion_dfa(env, lp.initial_region) for lp in plans]
    mission_owners: dict[str, list[int]] = {}
    for i, lp in enumerate(plans):
        for e in lp.mission.alphabet.events:
            mission_owners.setdefault(e, []).append(i)
    trace: list[str] = []
    fired_stop = False

    effective = env  # the environment with only its open doors
    for step in range(max_steps):
        changes = timetable.get(step, ())
        for door, state in changes:
            doors_open[door] = state == "open"
        if changes:
            effective = env.without_doors({d for d, is_open in doors_open.items() if not is_open})
        if fired_stop:
            return SimulationResult(trace, True)

        # replan any agent whose believed doors for its next move are stale
        for i, w in enumerate(walkers):
            for v2 in w.region_moves.get(w.state, ()):
                if w.region is None or v2 == w.region:
                    continue
                believed = w.believed.get((w.region, v2), ())
                if any(not doors_open[d] for d in believed):
                    _replan_walker(w, step, effective, nominal_motions[i], trace)
                    break

        moves: list[tuple[int, str]] = []
        for i, w in enumerate(walkers):
            for v2 in w.region_moves.get(w.state, ()):
                if w.region is None or v2 == w.region:
                    moves.append((i, v2))
                elif effective.doors_between(w.region, v2):
                    moves.append((i, v2))
        if moves:
            i, v2 = moves[0]
            w = walkers[i]
            w.state = w.plan.dfa.transitions[(w.state, v2)]
            w.region = v2
            w.consumed.append(v2)
            trace.append(f"{step} {w.plan.agent} {v2} region")
            continue

        enabled: list[str] = []
        for event, owners in sorted(mission_owners.items()):
            if all(
                walkers[i].plan.dfa.transitions.get((walkers[i].state, event)) is not None
                for i in owners
            ):
                enabled.append(event)
        if not enabled:
            snapshot = "; ".join(
                f"{w.plan.agent}@{w.state}({w.region or '-'})" for w in walkers
            )
            return SimulationResult(trace, False, deadlock=snapshot)
        event = enabled[0]
        for i in mission_owners[event]:
            w = walkers[i]
            w.state = w.plan.dfa.transitions[(w.state, event)]
            w.consumed.append(event)
            trace.append(f"{step} {w.plan.agent} {event} mission")
        if stop_event is not None and event == stop_event:
            fired_stop = True
    return SimulationResult(trace, fired_stop or stop_event is None)
