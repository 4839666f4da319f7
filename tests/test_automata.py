"""Core automata operations against brute-force enumeration oracles."""

import json
import os
import random
import re
import subprocess
import sys
from collections import deque
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cosynth
from cosynth.automata import (
    Dfa,
    EventAlphabet,
    InputError,
    accepts,
    all_marked,
    complement,
    complete,
    dfa_from_text,
    dfa_to_text,
    language_empty,
    language_equal,
    language_subset,
    minimal_product,
    minimize,
    parallel_compose,
    parallel_compose_all,
    product_violation,
    run,
    shortest_marked,
    universal_dfa,
    words_dfa,
    _Product,
    _determinize,
    _edge_walk,
    _minimize_numbered,
    _numbered_walk,
    _subset_walk,
)
from cosynth.langops import project, widen_like
from conftest import (
    brute_accepts,
    brute_generates,
    brute_project,
    chain_dfa,
    cycle_dfa,
    generated_up_to,
    lang_set,
    prefix_closure,
    random_dfa,
    reference_compose,
    reference_determinize,
    reference_language_subset,
    reference_minimize,
    reference_mission,
    reference_tabled_violation,
    trim,
    word_dfa,
    words_up_to,
)

AB = EventAlphabet(("a", "b"), frozenset({"a"}))


def ab_star_prefixes() -> Dfa:
    return Dfa(("p", "q"), AB, "p", {("p", "a"): "q", ("q", "b"): "p"}, frozenset({"p", "q"}))


def test_alphabet_invariants():
    with pytest.raises(InputError):
        EventAlphabet(("a", "a"))
    with pytest.raises(InputError):
        EventAlphabet(("a",), frozenset({"b"}))
    with pytest.raises(InputError):
        EventAlphabet(("a ", "b"))


_alphabets = st.lists(st.sampled_from("abcdef"), unique=True).flatmap(
    lambda events: st.builds(EventAlphabet, st.just(tuple(events)),
                             st.frozensets(st.sampled_from(events)) if events else st.just(frozenset())))


@settings(max_examples=200, deadline=None, database=None)
@given(left=_alphabets, right=_alphabets, keep=st.frozensets(st.sampled_from("abcdefg")))
def test_derived_alphabets_equal_checked_ones(left, right, keep):
    # restrict and union skip the checks their operands passed, yet build the
    # same alphabet, index included, as checked construction from scratch
    for derived in (left.restrict(keep), left.union(right)):
        rebuilt = EventAlphabet(derived.events, derived.controllable)
        assert derived == rebuilt and derived._index == rebuilt._index
        assert type(derived.events) is tuple and type(derived.controllable) is frozenset
    assert left.union(right).events == tuple(dict.fromkeys(left.events + right.events))
    assert left.restrict(keep).controllable == left.controllable & keep


def test_dfa_constructor_rejects_bad_input():
    with pytest.raises(InputError):
        Dfa(("0",), AB, "1", {}, frozenset())
    with pytest.raises(InputError, match=re.escape("transition event 'c' not in alphabet")):
        Dfa(("0",), AB, "0", {("0", "c"): "0"}, frozenset())
    with pytest.raises(InputError, match=re.escape("transition (0,a)->1 references unknown state")):
        Dfa(("0",), AB, "0", {("0", "a"): "1"}, frozenset())
    # with several offenders the first transition in insertion order is named
    with pytest.raises(InputError, match=re.escape("transition (0,b)->2 references unknown state")):
        Dfa(("0", "1"), AB, "0", {("0", "a"): "1", ("0", "b"): "2", ("1", "c"): "0"},
            frozenset())
    with pytest.raises(InputError, match=re.escape("transition event 'c' not in alphabet")):
        Dfa(("0", "1"), AB, "0", {("0", "a"): "1", ("1", "c"): "0", ("0", "b"): "2"},
            frozenset())


def test_run_empty_word_is_initial():
    d = ab_star_prefixes()
    assert run(d, ()) == "p"


def test_run_outside_alphabet_raises():
    with pytest.raises(InputError):
        run(ab_star_prefixes(), ("z",))


def test_run_chain_undefined():
    two = EventAlphabet(("a",))
    chain = Dfa(("0", "1"), two, "0", {("0", "a"): "1"}, frozenset({"0", "1"}))
    assert run(chain, ("a", "a")) is None


def test_parallel_compose_idempotent_on_language():
    d = ab_star_prefixes()
    composed = parallel_compose(d, d)
    assert language_equal(composed, d) is None


def test_parallel_compose_rejects_clashing_state_names():
    # a product names its tuples after the operand states, so commas in them
    # can give two reachable tuples the one name ⟨a,b,c⟩
    a = Dfa(("a,b", "a"), EventAlphabet(("x",)), "a", {("a", "x"): "a,b"}, frozenset({"a"}))
    b = Dfa(("c", "b,c"), EventAlphabet(("y",)), "b,c", {("b,c", "y"): "c"}, frozenset({"c"}))
    with pytest.raises(InputError, match="duplicate state ids"):
        parallel_compose(a, b)


def test_parallel_compose_shuffle_oracle():
    la = Dfa(("0",), EventAlphabet(("a",)), "0", {("0", "a"): "0"}, frozenset({"0"}))
    lb = Dfa(("0",), EventAlphabet(("b",)), "0", {("0", "b"): "0"}, frozenset({"0"}))
    sh = parallel_compose(la, lb)
    for w in words_up_to(("a", "b"), 4):
        assert brute_accepts(sh, w)


def test_parallel_compose_matches_projection_rule():
    # membership in the composition coincides with per-operand projection
    # membership (the defining property of the synchronous product)
    rng = random.Random(3)
    for _ in range(12):
        a = random_dfa(rng, 4, ("a", "b"))
        b = random_dfa(rng, 4, ("b", "c"))
        composed = all_marked(parallel_compose(a, b))
        for w in words_up_to(("a", "b", "c"), 6):
            expected = brute_generates(a, brute_project(w, ("a", "b"))) and brute_generates(
                b, brute_project(w, ("b", "c"))
            )
            assert brute_accepts(composed, w) == expected, w


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    left=st.sampled_from((("a", "b"), ("b", "c"), ("c",), ("a", "b", "c"))),
    right=st.sampled_from((("b", "a"), ("c",), ("a",), ("c", "b", "a"))),
)
def test_parallel_compose_matches_marked_projection_oracle(seed, left, right):
    # a word is accepted by the composition iff each operand accepts its
    # projection, for shared, disjoint and equal alphabets
    rng = random.Random(seed)
    a = random_dfa(rng, 4, left)
    b = random_dfa(rng, 4, right)
    composed = parallel_compose(a, b)
    expected = {
        w for w in words_up_to(composed.alphabet.events, 5)
        if brute_accepts(a, brute_project(w, left)) and brute_accepts(b, brute_project(w, right))
    }
    assert lang_set(composed, 5) == expected


def test_complete_total_input_gains_unreachable_error_state():
    total = universal_dfa(AB)
    comp, qe = complete(total)
    assert comp.is_total()
    assert all(qe not in comp.transitions[(q, e)] for q in total.states for e in AB.events)


def test_complete_reaches_error_state():
    two = Dfa(("0", "1"), AB, "0", {("0", "a"): "1"}, frozenset({"0", "1"}))
    comp, qe = complete(two)
    assert run(comp, ("b",)) == qe
    assert run(comp, ("a", "a")) == qe
    assert comp.is_total()


def test_complete_all_marked_accepts_everything():
    two = Dfa(("0", "1"), AB, "0", {("0", "a"): "1"}, frozenset({"0", "1"}))
    comp, qe = complete(two)
    widened = Dfa(comp.states, comp.alphabet, comp.initial, comp.transitions,
                  frozenset(comp.states))
    for w in words_up_to(AB.events, 4):
        assert brute_accepts(widened, w)


def test_complement_of_universal_is_empty():
    assert language_empty(complement(universal_dfa(AB)))


def test_double_complement_enumeration():
    rng = random.Random(5)
    for _ in range(15):
        d = random_dfa(rng, 4, ("a", "b"))
        double = complement(complement(d))
        for w in words_up_to(AB.events, 5):
            assert brute_accepts(double, w) == brute_accepts(d, w)


def test_complement_membership_flips():
    rng = random.Random(6)
    for _ in range(10):
        d = random_dfa(rng, 4, ("a", "b"))
        co = complement(d)
        for w in words_up_to(("a", "b"), 6):
            assert brute_accepts(co, w) != brute_accepts(d, w)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_events=st.integers(min_value=1, max_value=3),
    marked_p=st.sampled_from((0.0, 0.3, 0.6, 1.0)),
)
def test_complement_matches_word_enumeration(seed, n_events, marked_p):
    rng = random.Random(seed)
    events = ("a", "b", "c")[:n_events]
    d = random_dfa(rng, 4, events, density=rng.choice((0.3, 0.7, 1.0)), marked_p=marked_p)
    co = complement(d)
    assert co.alphabet == d.alphabet and co.is_total()
    everything = set(words_up_to(events, 5))
    accepted = lang_set(d, 5)
    assert lang_set(co, 5) == everything - accepted
    # a word of length 2 or less that leads to a co-reachable state of the
    # four-state DFA extends to an accepted word of length 5 or less
    closure = prefix_closure(d)
    prefixes = {w[:i] for w in accepted for i in range(len(w) + 1)}
    assert lang_set(closure, 2) == {w for w in prefixes if len(w) <= 2}
    assert prefixes <= lang_set(closure, 5)


def test_trim_fixpoint():
    d = trim(ab_star_prefixes())
    again = trim(d)
    assert d.states == again.states and d.transitions == again.transitions


def test_trim_drops_unreachable():
    three = Dfa(("0", "1", "2"), AB, "0", {("0", "a"): "1"}, frozenset({"0", "1"}))
    assert len(trim(three).states) == 2


def test_trim_empty_to_canonical():
    d = Dfa(("x", "y"), AB, "x", {("x", "a"): "y"}, frozenset())
    t = trim(d)
    assert t.states == ("0",) and not t.marked and not t.transitions


def test_minimize_idempotent_and_language_preserving():
    rng = random.Random(7)
    for _ in range(20):
        d = random_dfa(rng, 5, ("a", "b"))
        m = minimize(d)
        assert language_equal(m, d) is None
        again = minimize(m)
        assert dfa_to_text(again) == dfa_to_text(m)


def test_minimize_collapses_duplicate_states():
    # (ab)* prefixes drawn with a redundant copy of the second state
    d = Dfa(
        ("0", "1", "1bis", "2"),
        AB,
        "0",
        {("0", "a"): "1", ("1", "b"): "0", ("1bis", "b"): "0", ("2", "a"): "1bis"},
        frozenset({"0", "1", "1bis", "2"}),
    )
    assert len(minimize(d).states) == 2


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_events=st.integers(min_value=1, max_value=5),
    density=st.sampled_from((0.2, 0.5, 0.8, 1.0)),
    marked_p=st.sampled_from((0.0, 0.2, 0.5, 1.0)),
)
def test_minimize_matches_moore_reference(seed, n_events, density, marked_p):
    # partition refinement on the partial automaton gives the same canonical
    # text as Moore refinement over the completion, also for unreachable
    # states, automata without marked states and the empty language
    rng = random.Random(seed)
    events = ("a", "b", "c", "d", "e")[:n_events]
    d = random_dfa(rng, 12, events, density=density, marked_p=marked_p)
    assert dfa_to_text(minimize(d)) == dfa_to_text(reference_minimize(d))


PRODUCT_POOL = ("d", "a", "c", "b")  # components draw from these, not in sorted order


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    operand_events=st.lists(st.sets(st.sampled_from(PRODUCT_POOL), min_size=1),
                            min_size=1, max_size=4),
    marked_p=st.sampled_from((0.0, 0.5, 1.0)),
)
# partly overlapping alphabets, each in its own order, and unmarked states
@example(seed=5, operand_events=[{"a", "c"}, {"c", "d"}, {"b", "d", "a"}], marked_p=0.5)
def test_parallel_compose_all_matches_the_pairwise_fold(seed, operand_events, marked_p):
    # sparse operands with up to four states, so that some states are
    # unreachable; a single operand comes back as it is
    rng = random.Random(seed)
    operands = []
    for events in operand_events:
        order = sorted(events)
        rng.shuffle(order)
        d = random_dfa(rng, 4, order, density=0.6, marked_p=marked_p)
        alphabet = EventAlphabet(tuple(order), frozenset(rng.sample(order, len(order) // 2)))
        operands.append(Dfa(d.states, alphabet, d.initial, d.transitions, d.marked))
    got = parallel_compose_all(operands)
    expected = reference_compose(operands)
    assert dfa_to_text(got) == dfa_to_text(expected)
    assert got.states == expected.states  # the same breadth-first order
    if len(operands) == 2:
        assert dfa_to_text(parallel_compose(*operands)) == dfa_to_text(expected)


def _kernel_operand(rng: random.Random, events: list[str], kind: str, size: int,
                    marked_p: float = 0.7) -> Dfa:
    """An operand over *events* of *size* states, in shuffled order: a random
    part of up to ``live`` states from "0", and padding states "x…" with
    moves of their own that the random part never reaches.  ``kind`` is
    "random" (up to five states, partial moves), "dense" (up to two states
    that lack few moves), "one-state" (some self-loops) or "move-less" (no
    transitions at all)."""
    live = {"random": 5, "dense": 2, "one-state": 1, "move-less": 3}[kind]
    density = {"random": 0.85, "dense": 0.97, "one-state": 0.5, "move-less": 0.0}[kind]
    d = random_dfa(rng, min(live, size), events, density=density, marked_p=marked_p)
    pad = tuple(f"x{k}" for k in range(size - len(d.states)))
    states = list(d.states + pad)
    rng.shuffle(states)
    transitions = dict(d.transitions)
    if kind != "move-less":
        transitions.update({(q, e): rng.choice(states) for q in pad for e in events
                            if rng.random() < 0.5})
    alphabet = EventAlphabet(tuple(events), frozenset(rng.sample(events, len(events) // 2)))
    return Dfa(tuple(states), alphabet, d.initial, transitions,
               d.marked | {q for q in pad if rng.random() < 0.5})


def _check_product_kernel(rng: random.Random, operands: list[Dfa]) -> None:
    """parallel_compose_all, minimal_product and product_violation against
    their references, on *operands* and a random property."""
    got = parallel_compose_all(operands)
    expected = reference_compose(operands)
    assert dfa_to_text(got) == dfa_to_text(expected)
    assert got.states == expected.states
    events = list(got.alphabet.events)
    rng.shuffle(events)
    alphabet = EventAlphabet(tuple(events + ["z"]))  # z: an event no operand owns
    assert dfa_to_text(minimal_product(operands, alphabet)) == dfa_to_text(
        reference_mission(operands, alphabet))
    prop_events = rng.sample(events, rng.randint(1, len(events)))
    prop = random_dfa(rng, 4, prop_events, density=0.7, marked_p=0.7)
    assert product_violation(operands, prop) == reference_tabled_violation(operands, prop)


@settings(max_examples=100, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.lists(st.sampled_from(("random", "random", "random", "one-state", "move-less")),
                   min_size=1, max_size=4),
    shared=st.booleans(),
)
# one operand; a one-state and a move-less one; three owners of one event
@example(seed=1, kinds=["random"], shared=False)
@example(seed=2, kinds=["one-state", "move-less"], shared=True)
@example(seed=3, kinds=["random", "random", "random"], shared=True)
def test_product_kernel_matches_the_references(seed, kinds, shared):
    rng = random.Random(seed)
    operands = []
    for kind in kinds:
        events = rng.sample(PRODUCT_POOL, rng.randint(1, 3))
        if shared and "a" not in events:
            events.append("a")  # owned by every operand
        operands.append(_kernel_operand(rng, events, kind, rng.randint(1, 6)))
    _check_product_kernel(rng, operands)


@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       count=st.integers(min_value=22, max_value=26))
def test_product_kernel_past_machine_integers(seed, count):
    # at least 22 operands of 8 states or more, so the product's state codes
    # pass 2**63; every operand owns "s" and two states of live moves keep the
    # reachable product small, and nearly all of them are marked so that
    # some product states are; the last two operands alone own "d", so an
    # operand far into the code moves first on an event
    rng = random.Random(seed)
    operands = []
    for i in range(count):
        events = ["s"] + [e for e in ("a", "b", "c") if rng.random() < 0.5]
        events += ["d"] if i >= count - 2 else []
        rng.shuffle(events)
        operands.append(_kernel_operand(rng, events, "dense", rng.randint(8, 10), 0.97))
    assert prod(len(d.states) for d in operands) > 2**63
    _check_product_kernel(rng, operands)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    component_events=st.lists(st.sets(st.sampled_from(PRODUCT_POOL), min_size=1),
                              min_size=1, max_size=4),
    free=st.sets(st.sampled_from(("x", "y"))),
    marked_p=st.sampled_from((0.0, 0.3, 0.6, 1.0)),
)
# partially overlapping components and a global event no component owns
@example(seed=3, component_events=[{"a", "c"}, {"c", "d"}, {"b", "d"}], free={"x"}, marked_p=0.6)
# a component that marks nothing: the product language is empty
@example(seed=1, component_events=[{"a"}, {"a", "b"}], free=set(), marked_p=0.0)
def test_minimal_product_matches_the_pairwise_route(seed, component_events, free, marked_p):
    rng = random.Random(seed)
    components = []
    for events in component_events:
        order = sorted(events)
        rng.shuffle(order)  # an event order unlike the global one
        components.append(random_dfa(rng, 3, order, marked_p=marked_p))
    events = sorted(set().union(*component_events) | free)
    rng.shuffle(events)
    alphabet = EventAlphabet(tuple(events), frozenset(rng.sample(events, len(events) // 2)))
    got = minimal_product(components, alphabet)
    assert dfa_to_text(got) == dfa_to_text(reference_mission(components, alphabet))
    assert got.alphabet == alphabet
    assert minimize(got) is got  # recorded as canonical


def test_minimal_product_of_an_empty_language_is_the_canonical_empty_dfa():
    ab = EventAlphabet(("a", "b"))
    left = Dfa(("0",), ab, "0", {("0", "a"): "0"}, frozenset({"0"}))
    right = Dfa(("0", "1"), ab, "0", {("0", "b"): "1"}, frozenset({"1"}))  # left never moves on b
    got = minimal_product([left, right], ab)
    assert dfa_to_text(got) == "states: 0\nalphabet: a b\ncontrollable: \ninitial: 0\nmarked: \ntransitions:\n"


def test_minimal_product_rejects_events_outside_the_alphabet():
    with pytest.raises(InputError, match="missing from the wider alphabet"):
        minimal_product([word_dfa(("a",), AB)], EventAlphabet(("a",)))
    with pytest.raises(InputError, match="at least one"):
        minimal_product([], AB)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_events=st.integers(min_value=1, max_value=3),
    marked_p=st.sampled_from((0.0, 0.3, 0.6, 1.0)),
)
def test_minimize_returns_its_own_output_unchanged(seed, n_events, marked_p):
    rng = random.Random(seed)
    events = ("a", "b", "c")[:n_events]
    d = random_dfa(rng, 8, events, marked_p=marked_p)
    m = minimize(d)
    assert dfa_to_text(m) == dfa_to_text(reference_minimize(d))
    assert minimize(m) is m
    assert minimize(widen_like(m, m.alphabet)) is m
    g = minimize(all_marked(d))
    assert minimize(all_marked(g)) is g
    # automata derived from a minimised one are minimised afresh
    derived = []
    if len(m.marked) < len(m.states):
        derived.append(all_marked(m))
    if n_events > 1:
        derived.append(widen_like(m, EventAlphabet(events[::-1], m.alphabet.controllable)))
    if m.transitions:
        cut = rng.choice(sorted(m.transitions))
        kept = {k: v for k, v in m.transitions.items() if k != cut}
        derived.append(Dfa(m.states, m.alphabet, m.initial, kept, m.marked))
    for x in derived:
        got = minimize(x)
        assert got is not x
        assert dfa_to_text(got) == dfa_to_text(reference_minimize(x))


def test_minimize_long_chain_and_cycle():
    one = EventAlphabet(("a",))
    chain = minimize(chain_dfa(("a",) * 3000, one))
    assert len(chain.states) == 3001 and chain.marked == {"3000"}
    cycle = cycle_dfa(("a",) * 3000, one)
    once_round = Dfa(cycle.states, one, "0", cycle.transitions, frozenset({"0"}))
    assert len(minimize(once_round).states) == 3000
    assert len(minimize(cycle).states) == 1


# -- the integer core, called with successor lists -----------------------------------


def _succ_dfa(succ, marked, alphabet):
    """The automaton of successor lists, state p named "p" and state 0 initial."""
    names = [str(p) for p in range(len(succ))]
    transitions = {(names[p], alphabet.events[a]): names[q]
                   for p, out in enumerate(succ) for a, q in out}
    return Dfa(tuple(names), alphabet, "0", transitions,
               frozenset(name for name, m in zip(names, marked) if m))


def _renumber(succ, marked, rng):
    """*succ* and *marked* with every state but 0 renumbered at random."""
    perm = [0] + rng.sample(range(1, len(succ)), len(succ) - 1)
    new_succ = [None] * len(succ)
    new_marked = [None] * len(succ)
    for p, out in enumerate(succ):
        new_succ[perm[p]] = [(a, perm[q]) for a, q in out]
        new_marked[perm[p]] = marked[p]
    return new_succ, new_marked


def _check_minimize_numbered(succ, marked, alphabet):
    before = ([list(out) for out in succ], list(marked))
    got = _minimize_numbered(succ, marked, alphabet)
    assert (succ, marked) == before  # the caller's lists are left as they were
    assert dfa_to_text(got) == dfa_to_text(reference_minimize(_succ_dfa(succ, marked, alphabet)))
    assert minimize(got) is got  # recorded as canonical
    return got


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_events=st.integers(min_value=1, max_value=3),
    density=st.sampled_from((0.3, 0.6, 1.0)),
    marked_p=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
    unreachable=st.integers(min_value=0, max_value=3),
    renumber=st.booleans(),
)
def test_minimize_numbered_matches_the_reference(seed, n_events, density, marked_p,
                                                 unreachable, renumber):
    # successor lists numbered as a walk numbers them, or renumbered, with
    # dead states and states no walk from 0 reaches
    rng = random.Random(seed)
    events = ("a", "b", "c")[:n_events]
    d = random_dfa(rng, 10, events, density=density, marked_p=marked_p)
    order, succ = _edge_walk(d)
    marked = [q in d.marked for q in order]
    for _ in range(unreachable):
        succ.append([(a, rng.randrange(len(succ) + 1)) for a in range(n_events)
                     if rng.random() < density])
        marked.append(rng.random() < marked_p)
    if renumber and len(succ) > 1:
        succ, marked = _renumber(succ, marked, rng)
    _check_minimize_numbered(succ, marked, d.alphabet)


def test_minimize_numbered_ignores_moves_into_dead_states():
    # the two marked states are equivalent, though one of them moves into the
    # dead state 3; with either numbering
    abc = EventAlphabet(("a", "b", "c"))
    for succ in ([[(0, 1), (1, 2)], [(2, 3)], [], []],
                 [[(0, 2), (1, 1)], [], [(2, 3)], []]):
        got = _check_minimize_numbered(succ, [False, True, True, False], abc)
        assert got.transitions == {("0", "a"): "1", ("0", "b"): "1"}


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_events=st.integers(min_value=1, max_value=3),
    admitted_p=st.sampled_from((0.5, 0.8, 1.0)),
)
def test_minimize_numbered_with_the_sink_appended_last(seed, n_events, admitted_p):
    # the shape of the weakest assumption: admitted states are total, with
    # missing moves sent to a marked sink numbered after every walked state,
    # and rejected states have no moves and no mark
    rng = random.Random(seed)
    events = ("a", "b", "c")[:n_events]
    d = random_dfa(rng, 8, events, density=0.6)
    _, walked = _edge_walk(d)
    sink = len(walked)
    admitted = [rng.random() < admitted_p for _ in walked]
    succ = [[(a, dict(out).get(a, sink)) for a in range(n_events)] if ok else []
            for ok, out in zip(admitted, walked)]
    succ.append([(a, sink) for a in range(n_events)])
    _check_minimize_numbered(succ, admitted + [True], d.alphabet)


@settings(max_examples=30, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sizes=st.tuples(st.integers(min_value=10, max_value=17),
                    st.integers(min_value=10, max_value=17)),
    renumber=st.booleans(),
)
def test_minimize_numbered_keeps_an_already_minimal_product(seed, sizes, renumber):
    # two counters, of a's modulo p and of b's modulo q, each marked at 0: the
    # product walk gives p·q states, no two of them equivalent, so the
    # refinement ends in singletons
    rng = random.Random(seed)
    operands = [cycle_dfa((e,) * n, EventAlphabet((e,))) for e, n in zip("ab", sizes)]
    operands = [Dfa(c.states, c.alphabet, "0", c.transitions, frozenset({"0"}))
                for c in operands]
    alphabet = EventAlphabet(tuple(rng.sample(["a", "b"], 2)))
    product = _Product(operands, alphabet.events)
    order, succ = _numbered_walk(product.initial, product.moves)
    marked = product.marks(order)
    if renumber:
        succ, marked = _renumber(succ, marked, rng)
    got = _check_minimize_numbered(succ, marked, alphabet)
    assert len(got.states) == sizes[0] * sizes[1]
    assert dfa_to_text(got) == dfa_to_text(minimal_product(operands, alphabet))


def _injective_operand(rng: random.Random, events: list[str], size: int, keep_p: float,
                       marked_p: float) -> Dfa:
    """An operand of *size* states whose moves on each event are a random
    permutation of its states, each move kept with probability *keep_p*: no
    state has two predecessors under one event."""
    states = tuple(map(str, range(size)))
    transitions = {}
    for e in events:
        image = rng.sample(states, size)
        transitions.update({(q, e): t for q, t in zip(states, image) if rng.random() < keep_p})
    marked = frozenset(q for q in states if rng.random() < marked_p)
    return Dfa(states, EventAlphabet(tuple(events)), "0", transitions, marked)


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_operands=st.integers(min_value=1, max_value=3),
    keep_p=st.sampled_from((0.7, 1.0)),
    marked_p=st.sampled_from((0.3, 1.0)),
)
def test_minimize_numbered_on_products_of_permutation_automata(seed, n_operands, keep_p,
                                                               marked_p):
    # every operand moves injectively on each event, so their product does
    # too: each state has at most one predecessor under each event, and a
    # splitter of one state splits its predecessors out one by one
    rng = random.Random(seed)
    operands = [_injective_operand(rng, ["s", f"p{i}"], rng.randint(1, 5), keep_p, marked_p)
                for i in range(n_operands)]
    alphabet = EventAlphabet(tuple(dict.fromkeys(e for d in operands for e in d.alphabet.events)))
    product = _Product(operands, alphabet.events)
    order, succ = _numbered_walk(product.initial, product.moves)
    predecessors = [(q, a) for out in succ for a, q in out]
    assert len(set(predecessors)) == len(predecessors)
    got = _check_minimize_numbered(succ, product.marks(order), alphabet)
    assert dfa_to_text(got) == dfa_to_text(minimal_product(operands, alphabet))


def test_minimize_numbered_keeps_two_predecessors_of_a_singleton_splitter_together():
    # 1 and 2 both move on a into the marked state 3, a class of its own:
    # they are equivalent, and the splitter {3} must not part them
    ab = EventAlphabet(("a", "b"))
    succ = [[(0, 1), (1, 2)], [(0, 3)], [(0, 3)], []]
    got = _check_minimize_numbered(succ, [False, False, False, True], ab)
    assert got.transitions == {("0", "a"): "1", ("0", "b"): "1", ("1", "a"): "2"}


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_events=st.integers(min_value=1, max_value=3),
    marked_p=st.sampled_from((0.3, 0.7, 1.0)),
)
def test_minimize_numbered_with_twin_predecessors(seed, n_events, marked_p):
    # some states get a twin with the same moves, and some moves into a
    # twinned state go to its twin instead: a state then has two predecessors
    # under one event, a state and its twin, which no splitter may part
    rng = random.Random(seed)
    events = ("a", "b", "c")[:n_events]
    d = random_dfa(rng, 8, events, density=0.7, marked_p=marked_p)
    order, succ = _edge_walk(d)
    marked = [q in d.marked for q in order]
    n = len(succ)
    twin = {p: n + k for k, p in enumerate(sorted(rng.sample(range(n), rng.randint(0, n))))}
    succ += [list(succ[p]) for p in twin]
    marked += [marked[p] for p in twin]
    for out in succ:
        for i, (a, q) in enumerate(out):
            if q in twin and rng.random() < 0.5:
                out[i] = (a, twin[q])
    _check_minimize_numbered(succ, marked, d.alphabet)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_events=st.integers(min_value=1, max_value=3),
    dead=st.integers(min_value=0, max_value=3),
)
def test_minimize_numbered_fully_marked_and_with_dead_states(seed, n_events, dead):
    # every walked state is marked, so every state is live; then dead states,
    # unmarked and moving only among themselves, take some of the missing
    # moves of the marked states
    rng = random.Random(seed)
    events = ("a", "b", "c")[:n_events]
    _, succ = _edge_walk(random_dfa(rng, 8, events, density=0.6, marked_p=1.0))
    n = len(succ)
    marked = [True] * n
    for _ in range(dead):
        succ.append([(a, n + rng.randrange(dead)) for a in range(n_events) if rng.random() < 0.5])
        marked.append(False)
    for out in succ[:n] if dead else ():
        have = {a for a, _ in out}
        out += [(a, n + rng.randrange(dead)) for a in range(n_events)
                if a not in have and rng.random() < 0.5]
        out.sort()
    _check_minimize_numbered(succ, marked, EventAlphabet(events))


def _counting_reverse_edges(patch):
    """Count the calls of the minimiser's reverse-edge construction."""
    calls = []
    reverse_edges = cosynth.automata._reverse_edges
    patch.setattr(cosynth.automata, "_reverse_edges",
                  lambda succ: calls.append(len(succ)) or reverse_edges(succ))
    return calls


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_states=st.integers(min_value=1, max_value=12),
    dead=st.integers(min_value=0, max_value=3),
    renumber=st.booleans(),
)
def test_minimize_numbered_when_one_step_separates_every_live_state(seed, n_states, dead,
                                                                    renumber):
    # each marked state moves on its own set of events, so the one-step
    # grouping already gives it a block of its own; dead states, unmarked and
    # moving only among themselves, take some of the other moves.  No
    # refinement is left, so only the liveness sweep reverses the edges
    rng = random.Random(seed)
    events = ("a", "b", "c", "d")
    subsets = rng.sample(range(16), n_states)  # bit a of a subset: the state moves on a
    succ = [[(a, rng.randrange(n_states)) for a in range(4) if s >> a & 1] for s in subsets]
    for _ in range(dead):
        succ.append([(a, rng.randrange(n_states, n_states + dead)) for a in range(4)
                     if rng.random() < 0.5])
    for s, out in zip(subsets, succ[:n_states] if dead else ()):
        out += [(a, rng.randrange(n_states, n_states + dead)) for a in range(4)
                if not s >> a & 1 and rng.random() < 0.5]
        out.sort()
    marked = [True] * n_states + [False] * dead
    if renumber and len(succ) > 1:
        succ, marked = _renumber(succ, marked, rng)
    with pytest.MonkeyPatch.context() as patch:
        calls = _counting_reverse_edges(patch)
        _check_minimize_numbered(succ, marked, EventAlphabet(events))
    assert calls == ([len(succ)] if dead else [])


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_events=st.integers(min_value=1, max_value=3),
    marked_p=st.sampled_from((0.2, 0.5, 1.0)),
    dead=st.integers(min_value=0, max_value=2),
    renumber=st.booleans(),
)
def test_minimize_numbered_stops_once_every_live_state_has_its_own_block(
        seed, n_events, marked_p, dead, renumber):
    # a minimal automaton, with dead states added and its states renumbered:
    # the refinement ends with one live state per block, mostly while
    # splitters still wait, and must then name every live state by the walk
    rng = random.Random(seed)
    events = ("a", "b", "c")[:n_events]
    d = minimize(random_dfa(rng, 16, events, density=0.9, marked_p=marked_p))
    order, succ = _edge_walk(d)
    marked = [q in d.marked for q in order]
    n = len(succ)
    for _ in range(dead):
        succ.append([(a, n + rng.randrange(dead)) for a in range(n_events) if rng.random() < 0.5])
        marked.append(False)
    for out in succ[:n] if dead and d.marked else ():
        have = {a for a, _ in out}
        out += [(a, n + rng.randrange(dead)) for a in range(n_events)
                if a not in have and rng.random() < 0.3]
        out.sort()
    if renumber and len(succ) > 1:
        succ, marked = _renumber(succ, marked, rng)
    got = _check_minimize_numbered(succ, marked, d.alphabet)
    assert len(got.states) == n


@settings(max_examples=100, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.lists(st.sampled_from(("all", "some", "none")), min_size=1, max_size=3),
)
@example(seed=1, kinds=["all", "some", "all"])
def test_product_marks_match_the_decoded_flags(seed, kinds):
    # marks reads only the operands that have an unmarked state; it must
    # agree with is_marked and with each operand's marks read off the
    # decoded state tuple, for operands marked fully, in part or not at all
    rng = random.Random(seed)
    marked_p = {"all": 1.0, "some": 0.5, "none": 0.0}
    operands = [random_dfa(rng, 4, ["s", f"p{i}"], density=0.8, marked_p=marked_p[kind])
                for i, kind in enumerate(kinds)]
    events = tuple(dict.fromkeys(e for d in operands for e in d.alphabet.events))
    product = _Product(operands, events)
    order, _ = _numbered_walk(product.initial, product.moves)
    decoded = [all(d.states[q] in d.marked for d, q in zip(operands, product.digits(c)))
               for c in order]
    assert product.marks(order) == decoded
    assert [product.is_marked(c) for c in order] == decoded


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_language_subset_sink_matches_completion(seed):
    # walking b with an implicit sink finds the witness of its completion
    rng = random.Random(seed)
    a = random_dfa(rng, 5, ("a", "b", "c"))
    b = random_dfa(rng, 5, ("a", "b", "c"), density=0.5)
    assert language_subset(a, b) == language_subset(a, complete(b)[0])


def test_language_subset_reflexive_and_witness():
    d = ab_star_prefixes()
    assert language_subset(d, d) is None
    ab_only = word_dfa(("a", "b"), AB)
    assert language_subset(ab_only, d) is None
    assert language_subset(d, ab_only) == ("a", "b", "a")  # shortest word beyond prefixes of ab


def test_language_subset_prefixes_of_ab_versus_cycle():
    ab_only = word_dfa(("a", "b"), AB)
    cycle = ab_star_prefixes()
    assert language_subset(cycle, ab_only) == ("a", "b", "a")
    # the documented counterexample abab is in the difference as well
    assert brute_accepts(cycle, ("a", "b", "a", "b"))
    assert not brute_accepts(ab_only, ("a", "b", "a", "b"))


def test_counterexamples_are_shortest_lex():
    rng = random.Random(8)
    for _ in range(20):
        a = random_dfa(rng, 4, ("a", "b"))
        b = random_dfa(rng, 4, ("a", "b"))
        w = language_equal(a, b)
        difference = sorted(
            (x for x in words_up_to(("a", "b"), 7)
             if brute_accepts(a, x) != brute_accepts(b, x)),
            key=lambda x: (len(x), x),
        )
        if w is None:
            assert not difference or len(difference[0]) > 7
        else:
            assert difference and w == difference[0]


def test_determinism_enforced():
    # dict keys make duplicate (state, event) slots impossible by construction;
    # the constructor must still reject foreign endpoints
    with pytest.raises(InputError):
        Dfa(("0",), AB, "0", {("1", "a"): "0"}, frozenset())


def test_words_dfa_exact_set():
    d = words_dfa([(), ("a", "b"), ("b", "a")], AB)
    assert lang_set(d, 3) == {(), ("a", "b"), ("b", "a")}


def test_word_dfa_prefix_language():
    d = word_dfa(("a", "b"), AB)
    assert lang_set(d, 3) == {(), ("a",), ("a", "b")}


def test_serialisation_round_trip_bit_exact():
    rng = random.Random(9)
    for _ in range(10):
        d = minimize(random_dfa(rng, 5, ("a", "b")))
        text = dfa_to_text(d)
        back = dfa_from_text(text)
        assert dfa_to_text(back) == text
        assert language_equal(back, d) is None


def test_serialisation_canonical_order():
    d = ab_star_prefixes()
    text = dfa_to_text(d)
    lines = text.splitlines()
    assert lines[0] == "states: p q"
    assert lines[1] == "alphabet: a b"
    assert lines[2] == "controllable: a"
    assert "transitions:" in lines
    body = lines[lines.index("transitions:") + 1 :]
    assert body == ["p a q", "q b p"]


def test_deserialisation_errors_name_the_line():
    with pytest.raises(InputError) as err:
        dfa_from_text("states: a\nbogus line\n", source="f.aut")
    assert "f.aut:2" in str(err.value)


def test_minimize_canonical_equality_for_equal_languages():
    # two structurally different automata for the same language minimise to
    # the same canonical text
    a = cycle_dfa(("a", "b"), AB)
    b = Dfa(
        ("0", "1", "2", "3"),
        AB,
        "0",
        {("0", "a"): "1", ("1", "b"): "2", ("2", "a"): "3", ("3", "b"): "0"},
        frozenset(("0", "1", "2", "3")),
    )
    assert dfa_to_text(minimize(a)) == dfa_to_text(minimize(b))


# -- walks that follow out-edges -----------------------------------------------------


def _scrambled(rng: random.Random, dfa: Dfa, order: list[str]) -> Dfa:
    """The same automaton over *order*, its transitions stored in a random order,
    so that no walk can lean on the table listing moves in event order."""
    moves = list(dfa.transitions.items())
    rng.shuffle(moves)
    alphabet = EventAlphabet(tuple(order), frozenset(rng.sample(order, len(order) // 2)))
    return Dfa(dfa.states, alphabet, dfa.initial, dict(moves), dfa.marked)


def _least(words, alphabet: EventAlphabet):
    """The shortest, lexicographically least of *words* in the alphabet's order."""
    return min(words, key=lambda w: (len(w), [alphabet.index(s) for s in w]), default=None)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shared=st.sets(st.sampled_from(("s", "t")), min_size=1),
    private=st.lists(st.sets(st.sampled_from(("a", "b")), max_size=2), min_size=2, max_size=4),
    marked_p=st.sampled_from((0.0, 0.5, 1.0)),
)
# three operands that all own one event, each with a private event of its own
@example(seed=2, shared={"s"}, private=[{"a"}, {"b"}, set()], marked_p=0.5)
def test_parallel_compose_all_follows_out_edges_in_event_order(seed, shared, private, marked_p):
    # every operand owns the shared events, each lists its events in its own
    # order and stores its transitions in a random one; private events are
    # renamed per operand, so each operand is the first owner of some events
    rng = random.Random(seed)
    operands = []
    for i, own in enumerate(private):
        order = sorted(shared) + [f"{e}{i}" for e in sorted(own)]
        rng.shuffle(order)
        d = random_dfa(rng, 4, order, density=0.7, marked_p=marked_p)
        operands.append(_scrambled(rng, d, order))
    got = parallel_compose_all(operands)
    expected = reference_compose(operands)
    assert dfa_to_text(got) == dfa_to_text(expected)
    assert got.states == expected.states


LENGTH = 6  # the brute-force oracles enumerate words up to this length


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    marked_p=st.sampled_from((0.2, 0.5, 1.0)),
)
def test_language_subset_matches_brute_force_words(seed, marked_p):
    # a and b list the same events in different orders and store their
    # transitions scrambled; the witness is the least word in a's order, and
    # at any length it is the string-keyed reference walk's witness
    rng = random.Random(seed)
    events = ["a", "b", "c"]
    a_order, b_order = rng.sample(events, 3), rng.sample(events, 3)
    a = _scrambled(rng, random_dfa(rng, 4, a_order, density=0.6, marked_p=marked_p), a_order)
    b = _scrambled(rng, random_dfa(rng, 4, b_order, density=0.6, marked_p=marked_p), b_order)
    witness = language_subset(a, b)
    assert witness == reference_language_subset(a, b)
    difference = [w for w in generated_up_to(a, LENGTH)
                  if brute_accepts(a, w) and not brute_accepts(b, w)]
    if witness is None or len(witness) > LENGTH:
        assert not difference
    else:
        assert witness == _least(difference, a.alphabet)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    marked_p=st.sampled_from((0.1, 0.3, 0.6)),
)
def test_shortest_marked_matches_brute_force_words(seed, marked_p):
    rng = random.Random(seed)
    order = rng.sample(["a", "b", "c"], 3)
    dfa = _scrambled(rng, random_dfa(rng, 5, order, density=0.5, marked_p=marked_p), order)
    word = shortest_marked(dfa)
    accepted = [w for w in generated_up_to(dfa, LENGTH) if brute_accepts(dfa, w)]
    if word is None or len(word) > LENGTH:
        assert not accepted
    else:
        assert word == _least(accepted, dfa.alphabet)


@settings(max_examples=300, deadline=None, database=None)
@given(
    graph=st.integers(min_value=1, max_value=8).flatmap(lambda n: st.lists(
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(min_value=0, max_value=n - 1)),
                 max_size=4),
        min_size=n, max_size=n)),
    start=st.integers(min_value=0, max_value=7),
)
@example(graph=[[("a", 0), ("b", 1)], [("a", 1), ("c", 0)], [("a", 0)]], start=0)
def test_numbered_walk_numbers_first_seen_breadth_first(graph, start):
    # random successor graphs with cycles, self-loops, repeated moves and
    # nodes the start does not reach; the nodes are strings, so a node is
    # never mistaken for its number
    moves = {f"n{i}": [(label, f"n{j}") for label, j in out] for i, out in enumerate(graph)}
    start_node = f"n{start % len(graph)}"
    stepped = []

    def step(node):
        stepped.append(node)
        return moves[node]

    order, succ = _numbered_walk(start_node, step)
    expected, seen, queue = [], {start_node}, deque([start_node])
    while queue:
        node = queue.popleft()
        expected.append(node)
        for _, nxt in moves[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    assert order[0] == start_node
    assert order == expected
    assert len(set(order)) == len(order)
    assert stepped == order  # once per node, in number order
    assert [[(label, order[n]) for label, n in out] for out in succ] == [moves[x] for x in order]


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_events=st.integers(min_value=1, max_value=3),
    marked_p=st.sampled_from((0.0, 0.2, 0.5)),
    empty_moves=st.booleans(),
)
def test_subset_walk_matches_the_named_subset_construction(seed, n_events, marked_p,
                                                           empty_moves):
    # random NFAs, with or without empty moves, with empty target sets, moves
    # on an event outside the alphabet, several initial states and subsets
    # that hold no marked state; the moves are listed in random order
    rng = random.Random(seed)
    order = rng.sample(["a", "b", "c"], n_events)
    alphabet = EventAlphabet(tuple(order))
    states = [str(i) for i in range(rng.randint(1, 6))]
    pairs = [(q, e) for q in states
             for e in order + ([None, "z"] if empty_moves else ["z"])]
    rng.shuffle(pairs)
    nfa: dict = {}
    for pair in pairs:
        r = rng.random()
        if r < 0.15:
            nfa[pair] = set()
        elif r < 0.6:
            nfa[pair] = set(rng.sample(states, rng.randint(1, min(2, len(states)))))
    initials = set(rng.sample(states, rng.randint(1, min(2, len(states)))))
    marked = {q for q in states if rng.random() < marked_p}
    expected = reference_determinize(nfa, initials, marked, alphabet)
    named = _determinize(nfa, initials, marked, alphabet)
    assert dfa_to_text(named) == dfa_to_text(expected)
    assert named.states == expected.states
    subsets, succ = _subset_walk(nfa, initials, alphabet)
    got = _minimize_numbered(succ, [not s.isdisjoint(marked) for s in subsets], alphabet)
    assert dfa_to_text(got) == dfa_to_text(minimize(expected))


# Prints, for each input named on the command line and in that order, the
# dfa_to_text and states of its minimised or determinised automaton.
_NAMING_SCRIPT = """
import json, sys
from cosynth.automata import Dfa, EventAlphabet, _determinize, dfa_to_text, minimize

ab = EventAlphabet(("a", "b"))


def chain(n, marked):
    states = [f"s{i}" for i in range(n)]
    return Dfa(states, ab, "s0", {(q, "a"): r for q, r in zip(states, states[1:])}, marked)


def nfa_chain(n):
    nfa = {(str(i), "a"): {str(i + 1)} for i in range(n - 1)}
    nfa.update({(str(i), "b"): {str(i), str(i + 1)} for i in range(0, n - 1, 2)})
    return _determinize(nfa, {"0"}, {str(n - 1)}, ab)


inputs = {
    "chain": lambda: minimize(chain(3000, [f"s{i}" for i in range(3000)])),
    "merge": lambda: minimize(Dfa(("x", "y", "z", "w"), ab, "x", {
        ("x", "a"): "y", ("y", "a"): "z", ("z", "a"): "y", ("x", "b"): "w"}, {"y", "z", "w"})),
    "reversed": lambda: minimize(Dfa(("q2", "q1", "q0"), ab, "q0", {
        ("q0", "b"): "q2", ("q0", "a"): "q1", ("q1", "a"): "q1"}, {"q1", "q2"})),
    "empty": lambda: minimize(chain(5, ())),
    "subsets": lambda: _determinize({("p", "a"): {"p", "q"}, ("q", None): {"r"},
                                     ("r", "b"): {"p"}}, {"p"}, {"r"}, ab),
    "nfa_chain": lambda: nfa_chain(2500),
}
print(json.dumps([[dfa_to_text(d), list(d.states)] for d in (inputs[k]() for k in sys.argv[1:])]))
"""


def _naming_run(*names):
    src = Path(cosynth.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", _NAMING_SCRIPT, *names], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_state_names_do_not_leak_between_calls():
    # the names "0", "1", … are shared by every call in a process; a large
    # automaton numbered before or after small ones names each as a fresh
    # process does, and so does the subset construction
    small = ("merge", "reversed", "empty", "subsets")
    fresh = {name: _naming_run(name)[0] for name in ("chain", "nfa_chain") + small}
    assert fresh["chain"][1] == [str(i) for i in range(3000)]
    assert len(fresh["nfa_chain"][1]) > 2500
    assert fresh["merge"][1] == ["0", "1", "2"]
    for order in (("chain",) + small + ("nfa_chain",), small + ("nfa_chain", "chain") + small):
        assert _naming_run(*order) == [fresh[name] for name in order]


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    keep=st.integers(min_value=0, max_value=3),
    marked_p=st.sampled_from((0.0, 0.3, 0.7)),
)
def test_projection_matches_the_named_subset_route(seed, keep, marked_p):
    # project hands numbered subsets to the integer core; the named route
    # determinised, named the subsets and minimised them again
    rng = random.Random(seed)
    order = rng.sample(["a", "b", "c"], 3)
    d = random_dfa(rng, 5, order, density=0.6, marked_p=marked_p)
    target = rng.sample(order, keep)
    target_alphabet = d.alphabet.restrict(target)
    nfa: dict = {}
    for (src, e), dst in d.transitions.items():
        nfa.setdefault((src, e if e in target_alphabet else None), set()).add(dst)
    expected = minimize(reference_determinize(nfa, {d.initial}, set(d.marked), target_alphabet))
    assert dfa_to_text(project(d, target)) == dfa_to_text(expected)
