"""Language-level operations: projection, products, separability,
controllability, supC, satisfaction, and prefix-closed sublanguages."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    InputError,
    accepts,
    all_marked,
    dfa_to_text,
    empty_dfa,
    language_empty,
    language_equal,
    language_subset,
    minimize,
    parallel_compose_all,
    universal_dfa,
    words_dfa,
)
from cosynth.langops import (
    decompose,
    project,
    satisfies,
    satisfies_modular,
    sup_c,
    widen_like,
)
from conftest import (
    accessible,
    brute_accepts,
    brute_generates,
    brute_project,
    cycle_dfa,
    inverse_project_intersect,
    is_controllable,
    is_separable,
    lang_set,
    prefix_close_largest,
    quotient,
    random_dfa,
    reference_decompose,
    reference_minimize,
    reference_mission,
    reference_supc_closed_form,
    step_word,
    word_dfa,
    words_up_to,
)

AB = EventAlphabet(("a", "b"))
AU = EventAlphabet(("a", "u"), frozenset({"a"}))


def ab_cycle() -> Dfa:
    return Dfa(("p", "q"), AB, "p", {("p", "a"): "q", ("q", "b"): "p"}, frozenset({"p", "q"}))


def chain_plant() -> Dfa:
    return Dfa(("0", "1", "2"), AU, "0", {("0", "a"): "1", ("1", "u"): "2"},
               frozenset({"0", "1", "2"}))


# -- projection ------------------------------------------------------------


def test_project_identity():
    d = ab_cycle()
    assert language_equal(project(d, ("a", "b")), d) is None


def test_project_erases_symbols():
    got = project(ab_cycle(), ("a",))
    for n in range(5):
        assert brute_accepts(got, ("a",) * n)


def test_project_spec_type_checks_target():
    with pytest.raises(InputError, match="projection target event 'z' not in source alphabet"):
        project(ab_cycle(), ("z",))


def _brute_projection_membership(d: Dfa, target: tuple[str, ...], word: tuple[str, ...]) -> bool:
    """Subset-construction by hand: epsilon-close over erased events, then step."""
    erased = [e for e in d.alphabet.events if e not in target]

    def close(states: frozenset) -> frozenset:
        frontier = set(states)
        while True:
            grown = set(frontier)
            for q in frontier:
                for e in erased:
                    nxt = d.transitions.get((q, e))
                    if nxt is not None:
                        grown.add(nxt)
            if grown == frontier:
                return frozenset(frontier)
            frontier = grown

    current = close(frozenset({d.initial}))
    for symbol in word:
        moved = {d.transitions[(q, symbol)] for q in current if (q, symbol) in d.transitions}
        if not moved:
            return False
        current = close(frozenset(moved))
    return bool(current & d.marked)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    target=st.sampled_from(((), ("a",), ("a", "c"), ("c", "b"), ("a", "b", "c"))),
)
def test_project_matches_subset_construction_oracle(seed, target):
    d = random_dfa(random.Random(seed), 4, ("a", "b", "c"))
    got = project(d, target)
    assert minimize(got) == got  # already canonical
    for w in words_up_to(target, 5):
        assert brute_accepts(got, w) == _brute_projection_membership(d, target, w), w
    # every accepted word projects into the result
    assert {brute_project(w, target) for w in lang_set(d, 5)} <= lang_set(got, 5)


POOL = ("d", "a", "c", "b")  # components draw from these, not in sorted order


def _doubled(dfa: Dfa) -> Dfa:
    """The same language with each state q split into q and q', every move
    crossing between the copies; q and q' accept the same words, so a
    minimiser merges them."""
    states = dfa.states + tuple(f"{q}'" for q in dfa.states)
    transitions = {}
    for (q, e), q2 in dfa.transitions.items():
        transitions[(q, e)] = f"{q2}'"
        transitions[(f"{q}'", e)] = q2
    marked = dfa.marked | {f"{q}'" for q in dfa.marked}
    return Dfa(states, dfa.alphabet, dfa.initial, transitions, marked)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    component_events=st.lists(st.sets(st.sampled_from(POOL), min_size=1), min_size=1, max_size=4),
    agent_events=st.lists(st.sets(st.sampled_from(POOL + ("x", "y"))), min_size=1, max_size=3),
    doubled=st.booleans(),
)
# the first agent owns x, which no component uses, and shares no event with {b, d}
@example(seed=5, component_events=[{"a", "c"}, {"b", "d"}], agent_events=[{"a", "x"}, {"c"}],
         doubled=False)
# no two components share an event, and the first agent shares none with any
@example(seed=9, component_events=[{"a"}, {"b"}, {"c", "d"}], agent_events=[{"y"}, {"a", "b"}],
         doubled=False)
# non-minimal components that lose no event: the erased local product has 8
# states, the minimal one 1
@example(seed=3, component_events=[{"a", "b"}, {"b", "c"}], agent_events=[{"a", "b", "c"}],
         doubled=True)
def test_decompose_matches_the_monolithic_route(seed, component_events, agent_events, doubled):
    rng = random.Random(seed)
    components = []
    for events in component_events:
        order = sorted(events)
        rng.shuffle(order)
        component = random_dfa(rng, 3, order)
        components.append(_doubled(component) if doubled else component)
    # every component event belongs to some agent: the last agent takes the rest
    owned = [sorted(events) for events in agent_events]
    owned[-1] += sorted(set().union(*component_events) - set().union(*agent_events))
    alphabets = []
    for events in owned:
        rng.shuffle(events)
        alphabets.append(EventAlphabet(tuple(events), frozenset(rng.sample(events, len(events) // 2))))
    global_events = tuple(sorted({e for a in alphabets for e in a.events}))
    controlled = frozenset(e for a in alphabets for e in a.controllable)
    global_alphabet = EventAlphabet(global_events, controlled)

    got = decompose(components, alphabets, global_alphabet)
    expected = reference_decompose(components, alphabets, global_alphabet)
    assert [dfa_to_text(s) for s in got.specs] == [dfa_to_text(s) for s in expected]
    # each local product is the minimal P_{Σ_i ∪ Σ_shared} of the mission
    mission = reference_mission(components, global_alphabet)
    shared = {e for e in POOL if sum(e in events for events in component_events) > 1}
    assert got.product_states == [len(project(mission, shared.union(a.events)).states)
                                  for a in alphabets]


def test_decompose_names_a_shared_event_missing_from_the_global_alphabet():
    # z and w are shared by both components and missing from the global
    # alphabet; the error names z, the first of them in component order
    left = cycle_dfa(("a", "z", "w"), EventAlphabet(("a", "z", "w")))
    right = cycle_dfa(("w", "z", "b"), EventAlphabet(("w", "z", "b")))
    with pytest.raises(InputError, match=r"^event 'z' missing from the wider alphabet$"):
        decompose([left, right], [EventAlphabet(("a",)), EventAlphabet(("b",))],
                  EventAlphabet(("a", "b")))


@settings(max_examples=100, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_widen_like_keeps_the_canonical_record_only_for_the_same_event_order(seed):
    rng = random.Random(seed)
    events = ("a", "b", "c")
    m = minimize(random_dfa(rng, 6, events))
    split = frozenset(rng.sample(events, rng.randint(1, 3)))
    # the same events in the same order: only the controllable split changes
    same = widen_like(m, EventAlphabet(events, split))
    assert same is not m and same.alphabet.controllable == split
    assert minimize(same) is same
    assert dfa_to_text(same) == dfa_to_text(reference_minimize(same))
    # another order renumbers the canonical form, so the record is dropped
    other = widen_like(m, EventAlphabet(events[::-1], split))
    got = minimize(other)
    assert got is not other
    assert dfa_to_text(got) == dfa_to_text(reference_minimize(other))


def test_decomposed_specs_reach_synthesis_minimal(casestudy):
    # each spec is decompose's canonical output reindexed over its agent's
    # alphabet in the same order, so synthesis does not minimise it again
    got = decompose(casestudy["components"], casestudy["alphabets"], casestudy["global_alphabet"])
    for spec in got.specs:
        assert minimize(spec) is spec


def test_inverse_project_single_operand():
    la = Dfa(("0",), EventAlphabet(("a",)), "0", {("0", "a"): "0"}, frozenset({"0"}))
    lifted = inverse_project_intersect([la], AB)
    for w in words_up_to(("a", "b"), 4):
        assert brute_accepts(lifted, w) == (brute_project(w, ("a",)) in {("a",) * n for n in range(5)})


def test_inverse_project_shuffle():
    la = Dfa(("0",), EventAlphabet(("a",)), "0", {("0", "a"): "0"}, frozenset({"0"}))
    lb = Dfa(("0",), EventAlphabet(("b",)), "0", {("0", "b"): "0"}, frozenset({"0"}))
    sh = inverse_project_intersect([la, lb], AB)
    for w in words_up_to(("a", "b"), 4):
        assert brute_accepts(sh, w)


def test_project_then_inverse_project_identity_on_language():
    rng = random.Random(22)
    for _ in range(10):
        d = all_marked(random_dfa(rng, 4, ("a", "b")))
        back = inverse_project_intersect([project(d, ("a", "b"))], AB)
        for w in words_up_to(("a", "b"), 6):
            assert brute_accepts(back, w) == brute_accepts(d, w)


# -- separability -----------------------------------------------------------


def test_separable_single_block():
    assert is_separable(ab_cycle(), [("a", "b")]) is None


def test_not_separable_counterexample():
    l = words_dfa([(), ("a", "b"), ("b", "a")], AB)
    ce = is_separable(l, [("a",), ("b",)])
    assert ce == ("a",)


def test_separability_matches_brute_force():
    rng = random.Random(23)
    blocks = [("a", "b"), ("b", "c")]
    for _ in range(10):
        d = all_marked(random_dfa(rng, 3, ("a", "b", "c")))
        verdict = is_separable(d, blocks)
        members = {w for w in words_up_to(("a", "b", "c"), 5) if brute_accepts(d, w)}
        proj = [{brute_project(w, block) for w in members} for block in blocks]
        product = {
            w
            for w in words_up_to(("a", "b", "c"), 5)
            if all(brute_project(w, block) in p for block, p in zip(blocks, proj))
        }
        brute_equal = members == product
        if verdict is None:
            assert brute_equal or min(len(w) for w in product - members) > 5
        else:
            assert not brute_equal or len(verdict) > 5


# -- quotient ----------------------------------------------------------------


def test_quotient_epsilon_suffix_is_identity():
    d = ab_cycle()
    eps = words_dfa([()], AB)
    assert language_equal(quotient(d, eps), d) is None


def test_quotient_prefixes_with_u_suffix():
    au = word_dfa(("a", "u"), AU)
    ustar = Dfa(("0",), AU, "0", {("0", "u"): "0"}, frozenset({"0"}))
    q = quotient(au, ustar)
    assert lang_set(q, 3) == {(), ("a",), ("a", "u")}


# -- controllability and supC -------------------------------------------------


def test_full_behavior_always_controllable():
    plant = chain_plant()
    assert is_controllable(all_marked(plant), plant) is None


def test_controllability_counterexample():
    spec = word_dfa(("a",), AU)
    assert is_controllable(spec, chain_plant()) == ("a", "u")


def test_controllability_requires_containment():
    foreign = word_dfa(("u",), AU)
    with pytest.raises(InputError):
        is_controllable(foreign, chain_plant())


def test_supc_all_controllable_is_identity():
    alpha = EventAlphabet(("a", "u"), frozenset({"a", "u"}))
    plant = widen_like(chain_plant(), alpha)
    spec = widen_like(word_dfa(("a",), AU), alpha)
    assert language_equal(sup_c(spec, plant), spec) is None


def test_supc_chain_plant():
    got = sup_c(word_dfa(("a",), AU), chain_plant())
    assert lang_set(got, 3) == {()}


def test_supc_output_is_controllable_prefix_closed_sublanguage():
    rng = random.Random(24)
    for _ in range(20):
        alpha = EventAlphabet(("a", "b"), frozenset({"a"}))
        plant = all_marked(random_dfa(rng, 4, ("a", "b"), density=0.7))
        plant = widen_like(plant, alpha)
        strans = {k: v for k, v in plant.transitions.items() if rng.random() < 0.8}
        spec = minimize(Dfa(plant.states, alpha, plant.initial, strans,
                            frozenset(plant.states)))
        got = sup_c(spec, plant)
        assert language_subset(got, spec) is None
        assert language_equal(got, prefix_close_largest(got)) is None
        if not language_empty(got):
            assert is_controllable(got, plant) is None


def test_supc_supremality_against_sampled_controllable_sublanguages():
    rng = random.Random(25)
    alpha = EventAlphabet(("a", "b", "u"), frozenset({"a", "b"}))
    for _ in range(12):
        plant = widen_like(all_marked(random_dfa(rng, 4, ("a", "b", "u"), density=0.7)), alpha)
        strans = {k: v for k, v in plant.transitions.items() if rng.random() < 0.85}
        spec = minimize(Dfa(plant.states, alpha, plant.initial, strans, frozenset(plant.states)))
        supremal = sup_c(spec, plant)
        # randomly trimmed sub-behaviours of the spec that happen to be
        # controllable must already lie inside the supremal result
        for _ in range(6):
            ktrans = {k: v for k, v in spec.transitions.items() if rng.random() < 0.7}
            k = minimize(Dfa(spec.states, alpha, spec.initial, ktrans, frozenset(spec.states)))
            if language_empty(k):
                continue
            if is_controllable(k, plant) is None:
                assert language_subset(k, supremal) is None


def escapes_uncontrollably(plant: Dfa, spec: Dfa, word, uncontrollable, bound: int) -> bool:
    """Whether word·u is a plant word outside the spec for some uncontrollable
    word u with |u| ≤ bound.

    Brute force over the uncontrollable words, shortest first: a word that
    leaves the plant has no extension in it, and of the words that reach one
    pair of plant and spec states only the first is extended, since they
    have the same futures.
    """
    frontier = [tuple(word)]
    seen = {(step_word(plant, word), step_word(spec, word))}
    for _ in range(bound + 1):
        extended = []
        for w in frontier:
            if not brute_generates(plant, w):
                continue
            if not brute_accepts(spec, w):
                return True
            for e in uncontrollable:
                longer = w + (e,)
                pair = (step_word(plant, longer), step_word(spec, longer))
                if pair not in seen:
                    seen.add(pair)
                    extended.append(longer)
        frontier = extended
    return False


def unfolded_spec(rng: random.Random, plant: Dfa) -> Dfa:
    """A random prefix-closed spec inside L(plant).

    It unfolds the plant into two copies and keeps part of it, so it can
    tell apart words that reach one plant state.
    """
    transitions = {}
    for q in plant.states:
        for copy in "01":
            for e in plant.alphabet.events:
                nq = plant.transitions.get((q, e))
                if nq is not None and rng.random() < 0.8:
                    transitions[(q + copy, e)] = nq + rng.choice("01")
    states = tuple(q + copy for q in plant.states for copy in "01")
    return Dfa(states, plant.alphabet, plant.initial + "0", transitions, frozenset(states))


@settings(max_examples=100, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    uncontrollable=st.sets(st.sampled_from(("a", "b", "u")), min_size=1, max_size=2),
)
@example(seed=0, uncontrollable={"u"})  # cuts 11 of the 19 spec words up to length 4
def test_supc_matches_the_brute_force_supremal_words(seed, uncontrollable):
    # for a prefix-closed K ⊆ L(G), supC(K) holds the words s of K such that
    # no prefix s′ of s and no uncontrollable u put s′u in L(G)∖K; a shortest
    # such u repeats no pair of plant and spec states, so |u| ≤ |G|·|K|
    rng = random.Random(seed)
    events = ("a", "b", "u")
    alphabet = EventAlphabet(events, frozenset(events) - uncontrollable)
    plant = widen_like(all_marked(random_dfa(rng, 5, events, density=0.7)), alphabet)
    spec = unfolded_spec(rng, plant)
    bound = len(plant.states) * len(spec.states)
    uc = sorted(uncontrollable)
    # the spec is prefix-closed, so every prefix of a spec word is a key here
    escapes = {w: escapes_uncontrollably(plant, spec, w, uc, bound)
               for w in words_up_to(events, 4) if brute_accepts(spec, w)}
    expected = {s for s in escapes if not any(escapes[s[:i]] for i in range(len(s) + 1))}
    assert lang_set(sup_c(spec, plant), 4) == expected


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    events=st.sampled_from((("a", "b"), ("a", "b", "u"))),
    controllable=st.sets(st.sampled_from(("a", "b", "u"))),
)
def test_supc_walk_matches_the_closed_form(seed, events, controllable):
    rng = random.Random(seed)
    alphabet = EventAlphabet(events, frozenset(controllable) & frozenset(events))
    # the plant's marking is arbitrary: supC reads its generated language
    plant = widen_like(random_dfa(rng, 6, events, density=0.9, marked_p=rng.random()), alphabet)
    spec = unfolded_spec(rng, plant)
    closed_form = reference_supc_closed_form(minimize(spec), minimize(all_marked(plant)), alphabet)
    assert dfa_to_text(sup_c(spec, plant)) == dfa_to_text(closed_form)


ABU = EventAlphabet(("a", "b", "u"), frozenset({"a", "b"}))


def test_supc_cuts_an_escape_three_uncontrollable_steps_deep():
    # after a the plant can run u u u, but the spec stops after u u, so the
    # pairs reached by a, a u and a u u are bad; a b leads from a bad pair
    # back to the initial one, which stays good, and so does b
    moves = {("0", "a"): "1", ("1", "u"): "2", ("2", "u"): "3", ("3", "u"): "4",
             ("1", "b"): "0", ("0", "b"): "5"}
    states = ("0", "1", "2", "3", "4", "5")
    plant = Dfa(states, ABU, "0", moves, frozenset(states))
    del moves[("3", "u")]
    spec = accessible(Dfa(states, ABU, "0", moves, frozenset(states)))
    got = sup_c(spec, plant)
    assert dfa_to_text(got) == dfa_to_text(minimize(words_dfa([(), ("b",)], ABU)))


def test_supc_is_empty_when_the_initial_pair_is_bad():
    plant = Dfa(("0", "1", "2"), ABU, "0", {("0", "a"): "1", ("0", "u"): "2"},
                frozenset({"0", "1", "2"}))
    spec = word_dfa(("a",), ABU)
    assert dfa_to_text(sup_c(spec, plant)) == dfa_to_text(minimize(empty_dfa(ABU)))
    # the empty spec takes no pair at all, even where the plant cannot
    # escape uncontrollably
    assert dfa_to_text(sup_c(empty_dfa(AU), chain_plant())) == dfa_to_text(minimize(empty_dfa(AU)))


def test_supc_of_the_plant_itself_is_the_plant(casestudy):
    # plant-free mode: with no plant model the pipeline passes each decomposed
    # mission as its own plant, and supC must return it unchanged
    for spec in casestudy["specs"]:
        assert any(e not in spec.alphabet.controllable for e in spec.alphabet.events)
        assert dfa_to_text(sup_c(spec, spec)) == dfa_to_text(minimize(spec))


@settings(max_examples=100, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    controllable=st.sets(st.sampled_from(("a", "b", "u"))),
)
def test_supc_of_a_canonical_spec_against_itself_is_the_spec(seed, controllable):
    # a canonical prefix-closed K generates K, so supC(K) against L(G) = K
    # is K, returned as it is; the closed form agrees
    rng = random.Random(seed)
    events = ("a", "b", "u")
    alphabet = EventAlphabet(events, frozenset(controllable))
    plant = widen_like(random_dfa(rng, 6, events, density=0.9), alphabet)
    spec = minimize(unfolded_spec(rng, plant))
    assert sup_c(spec, spec) is spec
    closed_form = reference_supc_closed_form(spec, minimize(all_marked(spec)), alphabet)
    assert dfa_to_text(spec) == dfa_to_text(closed_form)


def test_supc_accepts_a_prefix_closed_spec_with_a_dead_state():
    # {ε, a} with an unmarked state after a·u: prefix-closed, though not
    # every state is marked; as its own plant it generates a·u, which is
    # not in K, so a is cut there too
    spec = Dfa(("0", "1", "d"), AU, "0", {("0", "a"): "1", ("1", "u"): "d"},
               frozenset({"0", "1"}))
    assert lang_set(sup_c(spec, chain_plant()), 3) == {()}
    assert lang_set(sup_c(spec, spec), 3) == {()}


def test_supc_input_errors_keep_their_messages():
    with pytest.raises(InputError, match="sup_c requires a prefix-closed spec"):
        sup_c(Dfa(("0", "1"), AU, "0", {("0", "a"): "1"}, frozenset({"1"})), chain_plant())
    with pytest.raises(InputError, match="spec language not contained in the plant: u"):
        sup_c(word_dfa(("u",), AU), chain_plant())
    with pytest.raises(InputError, match="spec and plant must share an alphabet"):
        sup_c(word_dfa(("a",), ABU), chain_plant())


def test_theorem_separate_controllability_implies_global():
    # one-directional: when both local projections are controllable and the
    # language is separable, the composition is globally controllable
    rng = random.Random(26)
    a1 = EventAlphabet(("a", "s"), frozenset({"a"}))
    a2 = EventAlphabet(("b", "s"), frozenset({"b", "s"}))
    glob = EventAlphabet(("a", "b", "s"), frozenset({"a", "b", "s"}))
    checked = 0
    for _ in range(40):
        p1 = widen_like(all_marked(random_dfa(rng, 3, ("a", "s"), density=0.8)), a1)
        p2 = widen_like(all_marked(random_dfa(rng, 3, ("b", "s"), density=0.8)), a2)
        l1 = minimize(Dfa(p1.states, a1, p1.initial,
                          {k: v for k, v in p1.transitions.items() if rng.random() < 0.85},
                          frozenset(p1.states)))
        l2 = minimize(Dfa(p2.states, a2, p2.initial,
                          {k: v for k, v in p2.transitions.items() if rng.random() < 0.85},
                          frozenset(p2.states)))
        if language_empty(l1) or language_empty(l2):
            continue
        joint = inverse_project_intersect([l1, l2], glob)
        plant = inverse_project_intersect([all_marked(p1), all_marked(p2)], glob)
        proj1 = widen_like(minimize(project(joint, a1.events)), a1)
        proj2 = widen_like(minimize(project(joint, a2.events)), a2)
        separately_controllable = (
            is_separable(joint, [a1.events, a2.events]) is None
            and is_controllable(proj1, p1) is None
            and is_controllable(proj2, p2) is None
        )
        if separately_controllable:
            checked += 1
            assert is_controllable(joint, plant) is None
    assert checked >= 3  # the sampler must actually exercise the implication


# -- satisfaction -------------------------------------------------------------


def test_satisfies_vacuous_property():
    m = ab_cycle()
    assert satisfies(m, universal_dfa(EventAlphabet(("b",)))) is None


def test_satisfies_counterexample():
    m = word_dfa(("a", "b"), AB)
    p = Dfa(("0",), EventAlphabet(("b",)), "0", {}, frozenset({"0"}))
    assert satisfies(m, p) == ("a", "b")


def test_satisfies_requires_alphabet_containment():
    with pytest.raises(InputError):
        satisfies(word_dfa(("a",), EventAlphabet(("a",))), universal_dfa(AB))


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    target=st.sampled_from(((), ("a",), ("c", "b"), ("b", "a", "c"))),
    marked_p=st.sampled_from((0.0, 0.3, 0.6, 1.0)),
)
def test_satisfies_matches_word_enumeration(seed, target, marked_p):
    # the witness is the shortest, lexicographically least violating word in
    # the system's event order, which need not be the property's
    rng = random.Random(seed)
    events = ["a", "b", "c"]
    rng.shuffle(events)
    m = random_dfa(rng, 4, events, marked_p=marked_p)
    p = random_dfa(rng, 3, target, density=rng.choice((0.4, 0.8)), marked_p=0.6)
    violations = [w for w in words_up_to(m.alphabet.events, 5)
                  if brute_accepts(m, w) and not brute_accepts(p, brute_project(w, target))]
    got = satisfies(m, p)
    if violations:
        assert got == violations[0]
    elif got is not None:
        assert len(got) > 5
        assert brute_accepts(m, got) and not brute_accepts(p, brute_project(got, target))


def _plans_and_components(seed, plan_events, component_events, derived):
    """Random plans over their own event orders, components over events the
    plans own, and the plans' global alphabet in yet another order.  Derived
    components are the plans' own projections, so the check mostly holds."""
    rng = random.Random(seed)
    owned = [sorted(events) for events in plan_events]
    owned[-1] += sorted(set().union(*component_events) - set().union(*plan_events))
    plans = []
    for events in owned:
        rng.shuffle(events)
        plans.append(random_dfa(rng, 3, events, marked_p=0.7))
    events = sorted(set().union(*owned))
    rng.shuffle(events)
    alphabet = EventAlphabet(tuple(events))
    components = []
    product = parallel_compose_all(plans)
    for events in component_events:
        order = sorted(events)
        rng.shuffle(order)
        if derived:
            components.append(widen_like(project(product, order), EventAlphabet(tuple(order))))
        else:
            components.append(random_dfa(rng, 3, order, marked_p=0.7))
    return plans, components, alphabet


MODULAR_POOL = ("d", "a", "c", "b")


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    plan_events=st.lists(st.sets(st.sampled_from(MODULAR_POOL + ("x",)), min_size=1),
                         min_size=1, max_size=3),
    component_events=st.lists(st.sets(st.sampled_from(MODULAR_POOL), min_size=1),
                              min_size=1, max_size=3),
    derived=st.booleans(),
)
# the plans share c, which the component on {a, b} does not own
@example(seed=5, plan_events=[{"a", "c"}, {"b", "c"}], component_events=[{"a", "b"}],
         derived=True)
# x belongs to a plan but to no component: only the ε-component checks it
@example(seed=4, plan_events=[{"a", "x"}, {"a", "b"}], component_events=[{"a"}, {"b"}],
         derived=True)
def test_satisfies_modular_agrees_with_the_monolithic_check(seed, plan_events,
                                                            component_events, derived):
    plans, components, alphabet = _plans_and_components(seed, plan_events, component_events,
                                                        derived)
    mission = reference_mission(components, alphabet)
    expected = satisfies(widen_like(parallel_compose_all(plans), alphabet), mission)
    got = satisfies_modular(plans, components, alphabet)
    assert (got is None) == (expected is None)
    if got is not None:
        # a word of the plans' product whose projection leaves some factor
        assert set(got) <= set(alphabet.events)
        assert all(brute_accepts(p, brute_project(got, p.alphabet.events)) for p in plans)
        owned = {e for c in components for e in c.alphabet.events}
        assert (brute_project(got, set(alphabet.events) - owned)
                or any(not brute_accepts(c, brute_project(got, c.alphabet.events))
                       for c in components))
        assert not brute_accepts(mission, got)


def test_satisfies_modular_lifts_the_local_witness_to_the_plans_product():
    sa = EventAlphabet(("a", "s"))
    sb = EventAlphabet(("s", "b"))
    plans = [words_dfa([("a", "s")], sa), words_dfa([("s", "b")], sb)]
    anything = universal_dfa(sa)
    only_eps = Dfa(("0",), EventAlphabet(("b",)), "0", {}, frozenset({"0"}))
    alphabet = EventAlphabet(("a", "b", "s"))
    # locally the violation is "s b"; in the product it needs the a first
    assert satisfies_modular(plans, [anything, only_eps], alphabet) == ("a", "s", "b")
    b_once = word_dfa(("b",), EventAlphabet(("b",)))
    assert satisfies_modular(plans, [anything, b_once], alphabet) is None


def test_satisfies_modular_forbids_events_of_no_component():
    ax = EventAlphabet(("a", "x"))
    plan = words_dfa([("a",), ("a", "x")], ax)
    a_star = universal_dfa(EventAlphabet(("a",)))
    assert satisfies_modular([plan], [a_star], ax) == ("a", "x")
    assert satisfies_modular([plan], [a_star], EventAlphabet(("a",))) is None


def test_satisfies_modular_rejects_alphabets_it_cannot_check():
    plan = word_dfa(("a",), EventAlphabet(("a",)))
    with pytest.raises(InputError, match="missing from the wider alphabet"):
        satisfies_modular([plan], [universal_dfa(AB)], EventAlphabet(("a",)))
    with pytest.raises(InputError, match="contained in the system alphabet"):
        satisfies_modular([plan], [universal_dfa(EventAlphabet(("a",)))], AB)


# -- prefix-closed sublanguage -------------------------------------------------


def test_prefix_close_largest_fixpoint():
    d = ab_cycle()
    assert language_equal(prefix_close_largest(d), d) is None


def test_prefix_close_largest_drops_unreachable_suffixes():
    l = words_dfa([(), ("a", "b")], AB)
    assert lang_set(prefix_close_largest(l), 3) == {()}
