"""Shared test helpers: brute-force oracles and case-study constructions.

The oracles here never call the code paths they check: membership is decided
by stepping transition tables word by word, projections by filtering
symbols, and language comparisons by enumerating words up to a bound.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import pytest

from cosynth.automata import (
    EPSILON,
    Dfa,
    EventAlphabet,
    InputError,
    InvariantError,
    Word,
    accepts,
    accessible,
    complement,
    complete,
    empty_dfa,
    extend_closure,
    language_equal,
    minimize,
    prefix_closure,
    subtract,
    word_dfa,
    _determinize,
    _out_edges,
)
from cosynth.langops import project, quotient, widen_alphabet, widen_like
from cosynth.motion import LabelingMap, ReplanInfeasible
from cosynth.synthesis import IllegalBehaviorSet, d_ui
from cosynth.verification import check_triple


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
    """K_j of a supervisor teacher with a plant automaton, built from its
    condemned classes by the string route; the reference for
    :meth:`cosynth.synthesis.SupervisorTeacher._rebuild_class_cut`.

    Names the pairs of the completed plant × completed spec "g|l", marks
    the condemned ones, extends them to every continuation and subtracts
    the result from the spec.
    """
    plant, _ = teacher._plant_completion
    specc, _ = teacher._spec_completion
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
        if (g, l) in teacher._cut_classes:
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
    """The string-keyed triple walk over the completed property, the
    reference for :func:`cosynth.verification.check_triple`.

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
    return 1 if check_triple(word_dfa(t, interface), module, prop) is None else 0


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
