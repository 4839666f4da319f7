"""Verification: the product check, the assume-guarantee machinery (triples,
weakest assumptions, the symmetric rule), counterexample analysis, mission
repair, and the refinement loop."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    accepts,
    all_marked,
    complement,
    complete,
    dfa_to_text,
    empty_dfa,
    language_empty,
    language_subset,
    minimize,
    parallel_compose_all,
    product_violation,
    universal_dfa,
    words_dfa,
)
from cosynth.langops import project_word, satisfies
from cosynth import automata, verification
from cosynth.verification import (
    Verdict,
    analyze_counterexample,
    assume_guarantee,
    choose_repair,
    cut_behavior,
    is_live,
    sym_n_check,
    verify,
    verify_and_refine,
    weakest_assumption,
)
from conftest import (
    accessible,
    brute_accepts,
    brute_project,
    chain_dfa,
    cv_membership,
    cycle_dfa,
    lang_set,
    random_dfa,
    reference_check_triple,
    reference_compose,
    reference_cut_behavior,
    reference_decompose,
    reference_is_live,
    reference_mission,
    reference_satisfies,
    reference_tabled_violation,
    reference_tabled_weakest_assumption,
    reference_weakest_assumption,
    union_lang,
    widen_alphabet,
    word_dfa,
    words_up_to,
)

AB = EventAlphabet(("a", "b"))
SV = EventAlphabet(("s", "v"))


def emitter() -> Dfa:
    """Module that performs shared event s and then violation v."""
    return Dfa(("0", "1", "2"), SV, "0", {("0", "s"): "1", ("1", "v"): "2"},
               frozenset({"0", "1", "2"}))


def no_violation() -> Dfa:
    """Property: the event v never happens (prefixes of s)."""
    return words_dfa([(), ("s",)], SV)


# -- triples -----------------------------------------------------------------


def test_triple_vacuous_property_holds():
    m = Dfa(("0", "1"), AB, "0", {("0", "a"): "1", ("1", "b"): "0"}, frozenset({"0", "1"}))
    assert reference_check_triple(universal_dfa(AB), m, universal_dfa(AB)) is None


def test_triple_violation_witness():
    m = Dfa(("0", "1"), AB, "0", {("0", "a"): "1", ("1", "b"): "0"}, frozenset({"0", "1"}))
    prop = word_dfa(("a",), AB)
    assert reference_check_triple(universal_dfa(AB), m, prop) == ("a", "b")


def test_triple_constrained_by_assumption():
    # the assumption forbidding s keeps the emitter from ever violating
    m = emitter()
    prop = no_violation()
    assumption = words_dfa([()], EventAlphabet(("s",)))
    assert reference_check_triple(assumption, m, prop) is None


def test_cv_membership_epsilon():
    # over the full interface the empty assumption blocks every event, so the
    # emitter stays safe; with the interface reduced to s, a module that
    # violates on its own private event is condemned even at epsilon
    assert cv_membership((), emitter(), no_violation(), SV) == 1
    rogue = Dfa(("0", "1"), SV, "0", {("0", "v"): "1"}, frozenset({"0", "1"}))
    assert cv_membership((), rogue, no_violation(), EventAlphabet(("s",))) == 0
    calm = Dfa(("0", "1"), SV, "0", {("0", "s"): "1"}, frozenset({"0", "1"}))
    assert cv_membership((), calm, no_violation(), SV) == 1


# -- weakest assumptions -------------------------------------------------------


def test_weakest_assumption_unconditional_satisfaction():
    calm = Dfa(("0", "1"), SV, "0", {("0", "s"): "1"}, frozenset({"0", "1"}))
    aw = weakest_assumption(calm, no_violation(), EventAlphabet(("s",)))
    for w in words_up_to(("s",), 4):
        assert brute_accepts(aw, w)


def test_weakest_assumption_excludes_enabling_context():
    aw = weakest_assumption(emitter(), no_violation(), EventAlphabet(("s",)))
    assert accepts(aw, ())
    assert not accepts(aw, ("s",))


@settings(max_examples=60, deadline=None, database=None)
@given(
    rng=st.randoms(use_true_random=False),
    interface=st.sets(st.sampled_from(("a", "b", "s")), min_size=1),
)
def test_weakest_assumption_matches_cv_membership(rng, interface):
    # the directly built weakest assumption admits exactly the words whose
    # prefix language, used as an assumption, keeps the module safe
    module = all_marked(random_dfa(rng, 3, ("a", "s")))
    prop = random_dfa(rng, 3, ("a", "b", "s"))
    iface = EventAlphabet(tuple(sorted(interface)))
    aw = weakest_assumption(module, prop, iface)
    for t in words_up_to(iface.events, 4):
        assert brute_accepts(aw, t) == (cv_membership(t, module, prop, iface) == 1), t


def test_lemma_membership_characterisation():
    # words admitted by the learned assumption are exactly those whose prefix
    # language, used as an assumption, keeps the module safe
    module = emitter()
    prop = no_violation()
    iface = EventAlphabet(("s",))
    learned = weakest_assumption(module, prop, iface)
    for t in words_up_to(("s",), 4):
        in_assumption = brute_accepts(learned, t)
        triple_holds = reference_check_triple(word_dfa(t, iface), module, prop) is None
        assert in_assumption == triple_holds


def _enumerate_environments(events: tuple[str, ...], max_states: int = 2):
    """All total-ish DFAs over the given events with up to two states."""
    states = tuple(str(i) for i in range(max_states))
    options = [None] + list(states)
    slots = [(q, e) for q in states for e in events]
    for choice in itertools.product(options, repeat=len(slots)):
        transitions = {
            slot: target for slot, target in zip(slots, choice) if target is not None
        }
        for marked_bits in itertools.product((False, True), repeat=max_states):
            marked = frozenset(q for q, bit in zip(states, marked_bits) if bit)
            yield Dfa(states, EventAlphabet(events), "0", transitions, marked)


def test_weakest_assumption_defining_property_on_toy():
    # for every small environment E: E |= A_w  iff  E || M |= P
    module = emitter()
    prop = no_violation()
    iface = EventAlphabet(("s",))
    aw = weakest_assumption(module, prop, iface)
    for env in _enumerate_environments(("s", "v")):
        env_sat_assumption = satisfies(env, aw) is None
        joint = parallel_compose_all([env, module])
        joint_sat_prop = satisfies(joint, prop) is None
        if env_sat_assumption:
            assert joint_sat_prop
        # completeness direction: environments kept out of the assumption can
        # realise a violation unless their own language already blocks it
        if not env_sat_assumption and language_empty(env):
            continue


def _random_operand(rng: random.Random, pool: list[str]) -> Dfa:
    """A partial automaton over a random subset of *pool* in a random order,
    with its own controllable set and possibly no marked state."""
    events = rng.sample(pool, rng.randint(1, len(pool)))
    dfa = random_dfa(rng, 4, events, density=rng.choice((0.3, 0.6, 0.9)),
                     marked_p=rng.choice((0.0, 0.5, 0.9)))
    alphabet = EventAlphabet(tuple(events), frozenset(e for e in events if rng.random() < 0.5))
    return Dfa(dfa.states, alphabet, dfa.initial, dfa.transitions, dfa.marked)


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_assumption_walks_match_their_string_references(seed):
    # the weakest assumption walks the module and the property on the core's
    # product; it must give the string walk's result.  The property may own
    # events the module lacks, the interface lists its events in another
    # order with its own controllable set, modules are partial and may have
    # no marked state, and assumptions may be empty.  A non-empty weakest
    # assumption discharges its own premise (an empty one admits no
    # environment, so its premise holds vacuously)
    rng = random.Random(seed)
    pool = ["a", "b", "c", "s"]
    module = _random_operand(rng, pool)
    prop = _random_operand(rng, pool)
    owned = list(dict.fromkeys(module.alphabet.events + prop.alphabet.events))
    chosen = rng.sample(owned, rng.randint(0, len(owned)))
    iface = EventAlphabet(tuple(chosen), frozenset(e for e in chosen if rng.random() < 0.5))
    aw = weakest_assumption(module, prop, iface)
    assert dfa_to_text(aw) == dfa_to_text(reference_weakest_assumption(module, prop, iface))
    if not language_empty(aw):
        assert reference_check_triple(aw, module, prop) is None


def test_an_empty_assumption_blocks_only_its_own_events():
    # the empty assumption over s forbids s, but the module's private v
    # still violates the property
    rogue = Dfa(("0", "1"), SV, "0", {("0", "v"): "1"}, frozenset())
    s_only = EventAlphabet(("s",))
    assert reference_check_triple(empty_dfa(s_only), rogue, no_violation()) == ("v",)
    assert reference_check_triple(empty_dfa(SV), rogue, no_violation()) is None


# -- the symmetric rule ----------------------------------------------------------


def test_sym_n_trivial():
    assert sym_n_check([universal_dfa(AB)], universal_dfa(AB)) is None


def test_sym_n_single_agent_counterexample():
    assumption = words_dfa([()], AB)  # complement accepts everything non-empty
    prop = words_dfa([(), ("a",)], AB)
    ce = sym_n_check([assumption], prop)
    assert ce is not None and not brute_accepts(prop, ce)


def test_analyze_first_agent_rejection():
    assert not analyze_counterexample(("a",), [empty_dfa(AB)], universal_dfa(AB))


def test_analyze_second_agent_rejection():
    m1 = universal_dfa(EventAlphabet(("a",)))
    m2 = words_dfa([()], EventAlphabet(("b",)))
    prop = words_dfa([()], AB)
    assert not analyze_counterexample(("b",), [m1, m2], prop)


def test_analyze_common_violation():
    m1 = universal_dfa(EventAlphabet(("a",)))
    m2 = universal_dfa(EventAlphabet(("b",)))
    prop = words_dfa([()], AB)
    assert analyze_counterexample(("a", "b"), [m1, m2], prop)


# -- mission repair ----------------------------------------------------------------


def test_cut_behavior_removes_the_decision_everywhere():
    # cycle with a branch: cutting one branch removes it at every revolution
    alpha = EventAlphabet(("g", "s", "r"))
    plan = Dfa(
        ("0", "1", "2"),
        alpha,
        "0",
        {("0", "g"): "1", ("0", "s"): "1", ("1", "r"): "0"},
        frozenset(("0", "1", "2")),
    )
    cut = cut_behavior(plan, ("s",))
    assert not accepts(cut, ("s",))
    assert not accepts(cut, ("g", "r", "s"))
    assert accepts(cut, ("g", "r", "g"))


@settings(max_examples=300, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_cut_behavior_matches_the_prefix_closed_route(rng):
    # plans with unmarked states, and with an unmarked initial state
    plan = random_dfa(rng, 6, ("a", "b", "c"), density=rng.choice((0.4, 0.8)),
                      marked_p=rng.choice((1.0, 0.7, 0.4)))
    accepted = [w for w in words_up_to(plan.alphabet.events, 4) if w and brute_accepts(plan, w)]
    if not accepted:
        return
    w = rng.choice(accepted)
    assert dfa_to_text(cut_behavior(plan, w)) == dfa_to_text(reference_cut_behavior(plan, w))


@settings(max_examples=300, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_is_live_matches_the_trim_route(rng):
    # random automata, with unreachable states and states that reach no marked one
    dfa = random_dfa(rng, 7, ("a", "b"), density=rng.choice((0.2, 0.4, 0.7)),
                     marked_p=rng.choice((0.2, 0.5, 1.0)))
    assert is_live(dfa) == reference_is_live(dfa)


def test_choose_repair_spares_unobserving_agents():
    a1 = EventAlphabet(("x", "r"))
    a2 = EventAlphabet(("y", "r"))
    p1 = Dfa(("0", "1"), a1, "0", {("0", "x"): "1", ("1", "r"): "0"}, frozenset(("0", "1")))
    p2 = Dfa(("0", "1"), a2, "0", {("0", "y"): "1", ("1", "r"): "0"}, frozenset(("0", "1")))
    repaired = choose_repair(("x",), [p1, p2])
    assert repaired is not None and repaired[0] == 0


def test_is_live_detects_cycles():
    alpha = EventAlphabet(("a",))
    finite = word_dfa(("a",), alpha)
    loop = universal_dfa(alpha)
    assert not is_live(finite)
    assert is_live(loop)
    # long chains and cycles are walked without recursion
    assert not is_live(chain_dfa(("a",) * 3000, alpha, mark_all=True))
    assert is_live(cycle_dfa(("a",) * 3000, alpha))


# -- the verification pass ---------------------------------------------------------


def test_verify_independent_modules_hold():
    m1 = universal_dfa(EventAlphabet(("x",)))
    m2 = universal_dfa(EventAlphabet(("y",)))
    prop = universal_dfa(EventAlphabet(("x", "y")))
    verdict, assumptions, fallback = assume_guarantee([m1, m2], prop)
    assert verdict.holds()
    assert len(assumptions) == 2
    assert verify([m1, m2], prop) == (verdict, 1)


def test_verify_detects_joint_violation():
    m1 = universal_dfa(EventAlphabet(("x",)))
    m2 = universal_dfa(EventAlphabet(("y",)))
    prop = words_dfa([(), ("x",), ("y",)], EventAlphabet(("x", "y")))
    verdict, product_states = verify([m1, m2], prop)
    assert verdict.outcome == "violated"
    assert product_states == 1
    ce = verdict.counterexample
    assert ce is not None
    assert not brute_accepts(prop, ce)
    for m in (m1, m2):
        assert brute_accepts(m, project_word(ce, m.alphabet.events))


def test_verify_agrees_with_monolithic_on_random_instances(monkeypatch):
    # a concluded proof rule decides on its own, with no product walk, and
    # agrees with the monolithic check like a fallback does; half of these
    # instances conclude that the property holds
    walks = []
    product_check = verification.verify

    def counted_verify(modules, prop):
        walks.append(1)
        return product_check(modules, prop)

    monkeypatch.setattr(verification, "verify", counted_verify)
    rng = random.Random(51)
    agree = concluded = 0
    for _ in range(30):
        m1 = all_marked(random_dfa(rng, 3, ("a", "s"), density=0.8))
        m2 = all_marked(random_dfa(rng, 3, ("b", "s"), density=0.8))
        prop_events = ("a", "b", "s")
        prop = all_marked(random_dfa(rng, 4, prop_events, density=0.85))
        if language_empty(prop):
            continue
        walks.clear()
        verdict, _, fallback = assume_guarantee([m1, m2], prop)
        assert len(walks) == (1 if fallback else 0)
        concluded += verdict.holds() and not fallback
        product = parallel_compose_all([m1, m2])
        direct = satisfies(widen_alphabet(product, prop.alphabet), prop)
        assert verdict.holds() == (direct is None)
        agree += 1
    assert agree >= 20 and concluded >= 10


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mode=st.sampled_from(("random property", "own product", "cut product", "symmetric rule")),
)
def test_direct_check_matches_composed_product(seed, mode):
    # the on-the-fly walk finds the witness of composing the plans, widening
    # the product and checking it against the property, and counts the
    # product states it expanded: all of the reachable ones when the property
    # holds, and no more than those when it stops at a witness.  The
    # properties are partial, so that the implicit sink is reached, and the
    # modules have unmarked states.  In the symmetric rule's last premise the
    # walked operands are the assumptions' complements
    rng = random.Random(seed)
    pool = ["a", "b", "c", "s", "t"]
    modules = []
    for _ in range(rng.randint(1, 4)):
        events = rng.sample(pool, rng.randint(1, len(pool)))
        modules.append(random_dfa(rng, 3, events, density=0.7, marked_p=0.7))
    if mode == "symmetric rule":
        assumptions = modules
        modules = [complement(a) for a in assumptions]
    product = reference_compose(modules)
    if mode in ("random property", "symmetric rule"):
        owned = list(product.alphabet.events) + ["z"]
        prop = random_dfa(rng, 4, rng.sample(owned, rng.randint(1, len(owned))), density=0.6)
    else:
        prop = product
        if mode == "cut product" and product.transitions:
            transitions = dict(product.transitions)
            del transitions[rng.choice(sorted(transitions))]
            prop = Dfa(product.states, product.alphabet, product.initial, transitions,
                       product.marked)
    widened = widen_alphabet(product, product.alphabet.union(prop.alphabet))
    expected = reference_satisfies(widened, prop)
    assert expected == reference_satisfies(widened, complete(prop)[0])
    assert satisfies(widened, prop) == expected
    if mode == "own product":
        assert expected is None
    if mode == "symmetric rule":
        assert sym_n_check(assumptions, prop) == expected
    # one module is its own product, unreachable states included; the walk
    # counts reachable states only
    reachable = len(accessible(product).states)
    witness, expanded = product_violation(modules, prop)
    assert witness == expected
    assert reference_tabled_violation(modules, prop) == (witness, expanded)
    verdict, product_states = verify(modules, prop)
    assert product_states == expanded <= reachable
    if expected is None:
        assert verdict.holds() and expanded == reachable
    else:
        assert verdict.outcome == "violated" and verdict.counterexample == expected
        # the witness is a joint violation: every module accepts its
        # projection and the property rejects its own
        for m in modules:
            assert brute_accepts(m, brute_project(expected, m.alphabet.events)), m
        assert not brute_accepts(prop, brute_project(expected, prop.alphabet.events))


def test_violated_verify_walks_the_product_once(monkeypatch):
    # the walk that finds the witness also gives the pass its size, so a
    # violated pass builds one product and expands fewer tuples than it has
    p1, p2, prop = conflicting_choice()
    reachable = len(accessible(parallel_compose_all([p1, p2])).states)
    built = []
    init = automata._Product.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(automata._Product, "__init__", counted)
    verdict, product_states = verify([p1, p2], prop)
    assert verdict.outcome == "violated" and len(built) == 1
    assert product_states == built[0].expanded() < reachable


def test_refine_walks_the_property_twice(monkeypatch):
    # the first pass and one repair re-check walk the caller's property
    # itself; the clean re-check decides the second pass
    walked = []
    check = verification.product_violation

    def counted_check(modules, prop):
        walked.append(prop)
        return check(modules, prop)

    monkeypatch.setattr(verification, "product_violation", counted_check)
    p1, p2, prop = conflicting_choice()
    result = verify_and_refine([p1, p2], [p1, p2], prop)
    assert result.status == "holds" and len(result.rounds) == 2
    assert len(walked) == 2 and all(w is prop for w in walked)


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    empty=st.booleans(),
)
def test_stepping_walks_match_the_tabled_walks(seed, empty):
    # moving the property along its own transitions is the tabled walk with
    # the property states named: the same verdict, witness and expanded count,
    # and the same weakest assumption.  The property may own an event that no
    # operand owns (z) and miss operand events; its moves are partial, its
    # initial state may be unmarked, and it has a state that nothing reaches
    rng = random.Random(seed)
    pool = ["a", "b", "c", "s", "t"]
    modules = [random_dfa(rng, 3, rng.sample(pool, rng.randint(1, len(pool))),
                          density=0.7, marked_p=0.7)
               for _ in range(rng.randint(1, 3))]
    events = rng.sample(pool + ["z"], rng.randint(1, len(pool) + 1))
    if empty:
        prop = empty_dfa(EventAlphabet(tuple(events)))
    else:
        base = random_dfa(rng, 4, events, density=0.5, marked_p=0.7)
        transitions = dict(base.transitions)
        for e in events:
            if rng.random() < 0.5:
                transitions[("unreached", e)] = rng.choice(base.states)
        prop = Dfa(base.states + ("unreached",), base.alphabet, base.initial, transitions,
                   base.marked | {"unreached"})
    assert product_violation(modules, prop) == reference_tabled_violation(modules, prop)
    module = modules[0]
    owned = sorted(set(module.alphabet.events) | set(prop.alphabet.events))
    interface = EventAlphabet(tuple(rng.sample(owned, rng.randint(0, len(owned)))))
    assert dfa_to_text(weakest_assumption(module, prop, interface)) == dfa_to_text(
        reference_tabled_weakest_assumption(module, prop, interface))


def test_verdict_serialisation():
    v = Verdict("violated", counterexample=("a", "b"))
    text = v.render()
    assert "outcome: violated" in text and "a b" in text


# -- the refinement loop -----------------------------------------------------------


def test_refine_separable_mission_needs_no_rounds():
    a1 = EventAlphabet(("x",), frozenset({"x"}))
    a2 = EventAlphabet(("y",), frozenset({"y"}))
    s1 = universal_dfa(a1)
    s2 = universal_dfa(a2)
    prop = universal_dfa(EventAlphabet(("x", "y"), frozenset({"x", "y"})))
    result = verify_and_refine([s1, s2], [s1, s2], prop)
    assert result.status == "holds"
    assert result.refinement_rounds == 0


def test_refine_forbidden_but_optional_behaviour_collapses_to_idle():
    # the property forbids every non-empty word; all behaviour is controllable,
    # so the largest solution is both agents idling forever
    a1 = EventAlphabet(("x",), frozenset({"x"}))
    a2 = EventAlphabet(("y",), frozenset({"y"}))
    s1 = universal_dfa(a1)
    s2 = universal_dfa(a2)
    prop = words_dfa([()], EventAlphabet(("x", "y"), frozenset({"x", "y"})))
    result = verify_and_refine([s1, s2], [s1, s2], prop)
    assert result.status == "holds"
    assert all(lang_set(p, 2) == {()} for p in result.plans)


def test_refine_unsatisfiable_joint_mission_is_infeasible():
    # agent 1's plant fires x uncontrollably and the property forbids x:
    # no controllable sublanguage except the empty one exists
    a1 = EventAlphabet(("x", "r"), frozenset({"r"}))
    a2 = EventAlphabet(("y",), frozenset({"y"}))
    p1 = Dfa(("0", "1"), a1, "0", {("0", "x"): "1", ("1", "r"): "0"}, frozenset(("0", "1")))
    s2 = universal_dfa(a2)
    glob = EventAlphabet(("r", "x", "y"), frozenset({"r", "x", "y"}))
    prop = Dfa(("0",), glob, "0", {("0", "y"): "0"}, frozenset(("0",)))  # never x
    result = verify_and_refine([p1, s2], [p1, s2], prop)
    assert result.status == "infeasible"
    assert result.counterexample is not None


@pytest.mark.filterwarnings("ignore:supremal controllable sublanguage is empty")
def test_refine_with_an_empty_first_supervisor_is_infeasible():
    # agent 1's plant fires x uncontrollably at once and its spec forbids x,
    # so its first supervisor is empty; a product with it accepts nothing, so
    # a pass would hold although agent 2 fires y, which the property forbids
    a1 = EventAlphabet(("x",), frozenset())
    a2 = EventAlphabet(("y",), frozenset({"y"}))
    s1 = Dfa(("0",), a1, "0", {}, frozenset({"0"}))
    s2 = universal_dfa(a2)
    prop = Dfa(("0",), EventAlphabet(("x", "y"), frozenset({"y"})), "0", {}, frozenset({"0"}))
    result = verify_and_refine([s1, s2], [universal_dfa(a1), s2], prop)
    assert (result.status, result.rounds, result.counterexample) == ("infeasible", [], None)
    assert not result.plans[0].marked and result.plans[1].marked


def conflicting_choice() -> tuple[Dfa, Dfa, Dfa]:
    """Two plans and a property: agent 1 may pick g (safe) or s (forbidden
    jointly with agent 2's t)."""
    a1 = EventAlphabet(("g", "s", "r"), frozenset({"g", "s", "r"}))
    a2 = EventAlphabet(("t", "r"), frozenset({"t", "r"}))
    p1 = Dfa(("0", "1"), a1, "0", {("0", "g"): "1", ("0", "s"): "1", ("1", "r"): "0"},
             frozenset(("0", "1")))
    p2 = Dfa(("0", "1"), a2, "0", {("0", "t"): "1", ("1", "r"): "0"}, frozenset(("0", "1")))
    glob = EventAlphabet(("g", "r", "s", "t"), frozenset({"g", "r", "s", "t"}))
    # the property only ever allows g together with t, never s
    good = parallel_compose_all([
        Dfa(("0", "1"), a1.restrict(("g", "r")), "0",
            {("0", "g"): "1", ("1", "r"): "0"}, frozenset(("0", "1"))),
        p2,
    ])
    return p1, p2, widen_alphabet(minimize(good), glob)


def test_refine_prunes_conflicting_choice():
    p1, p2, prop = conflicting_choice()
    result = verify_and_refine([p1, p2], [p1, p2], prop)
    assert result.status == "holds"
    assert result.refinement_rounds == 1
    assert not accepts(result.plans[0], ("s",))
    assert accepts(result.plans[0], ("g",))
    # monotone shrinkage held round over round
    assert language_subset(result.plans[0], p1) is None


def test_refine_out_of_rounds_is_undecided():
    # max_rounds counts the repairs of the run, not its passes: one repair
    # fits a budget of one, and its clean re-check decides the second pass;
    # with no repair left the run is undecided, not infeasible, and reports
    # the counterexample it could not repair
    p1, p2, prop = conflicting_choice()
    result = verify_and_refine([p1, p2], [p1, p2], prop, max_rounds=1)
    assert result.status == "holds" and len(result.rounds) == 2
    assert len(result.rounds[0].repairs) == 1
    result = verify_and_refine([p1, p2], [p1, p2], prop, max_rounds=0)
    assert result.status == "undecided" and len(result.rounds) == 1
    assert not result.rounds[0].repairs
    assert result.counterexample == result.rounds[0].verdict.counterexample
    assert product_violation(result.plans, prop)[0] == result.counterexample


def test_refine_records_the_clean_recheck_as_the_next_pass():
    # the pass after a repair phase holds with the product size the
    # re-check expanded, which a fresh verify of the same plans reports too
    p1, p2, prop = conflicting_choice()
    result = verify_and_refine([p1, p2], [p1, p2], prop)
    last = result.rounds[-1]
    assert last.verdict == Verdict("holds") and not last.repairs
    assert (last.verdict, last.product_states) == verify(result.plans, prop)


def _random_team(rng: random.Random):
    """Agents, mission components, specs and plants of a random refinement instance.

    The components are prefix-closed, so the decomposed specs are too.  A
    plant is either the spec itself or the spec's union with a random
    automaton, so that supC cuts uncontrollable moves out of the spec.
    """
    pool = ["a", "b", "c", "s", "t"]
    alphabets = []
    for _ in range(rng.randint(2, 3)):
        events = tuple(rng.sample(pool, rng.randint(1, 3)))
        alphabets.append(EventAlphabet(events, frozenset(e for e in events
                                                         if rng.random() < 0.7)))
    events = tuple(sorted({e for a in alphabets for e in a.events}))
    controlled = {e for a in alphabets for e in a.controllable}
    glob = EventAlphabet(events, frozenset(controlled))
    components = [
        all_marked(random_dfa(rng, 4, rng.sample(events, rng.randint(min(2, len(events)),
                                                                     len(events))),
                              density=rng.choice((0.5, 0.8))))
        for _ in range(rng.randint(1, 2))
    ]
    specs = reference_decompose(components, alphabets, glob)
    plants = []
    for spec, alphabet in zip(specs, alphabets):
        if rng.random() < 0.5:
            plants.append(spec)
            continue
        extra = random_dfa(rng, 3, alphabet.events, marked_p=1.0)
        extra = Dfa(extra.states, alphabet, extra.initial, extra.transitions, extra.marked)
        plants.append(all_marked(union_lang(spec, extra)))
    return glob, components, specs, plants


@pytest.mark.filterwarnings("ignore:supremal controllable sublanguage is empty")
@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_refinement_shrinks_each_plan_and_ends_inside_the_mission(seed):
    # each repair cuts its word from the plan of the agent it names, the cut
    # mission and its new supervisor stay inside that plan, and plans that
    # hold make a product that satisfies the mission
    rng = random.Random(seed)
    glob, components, specs, plants = _random_team(rng)
    mission = reference_mission(components, glob)
    calls = []
    synthesize = verification.synthesize_supervisor

    def spy(spec, plant):
        plan = synthesize(spec, plant)
        calls.append((plant, spec, plan))
        return plan

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "synthesize_supervisor", spy)
        result = verify_and_refine(specs, plants, mission, max_rounds=20)
    plans = [plan for _, _, plan in calls[:len(specs)]]
    later = iter(calls[len(specs):])
    for rnd in result.rounds:
        for agent, w in rnd.repairs:
            call = next(later, None)
            if call is None:  # the cut emptied the mission: nothing was synthesised
                assert result.status == "infeasible"
                break
            plant, cut_spec, plan = call
            old = plans[agent]
            assert plant is plants[agent]
            assert brute_accepts(old, w) and not brute_accepts(cut_spec, w), w
            assert language_subset(cut_spec, old) is None
            assert language_subset(plan, old) is None
            if not language_empty(plan):
                plans[agent] = plan
    assert next(later, None) is None
    if result.status == "holds":
        assert all(a is b for a, b in zip(plans, result.plans))
        assert all(plan.marked for plan in result.plans)  # no vacuous verdict
        assert reference_satisfies(reference_compose(result.plans), mission) is None
    elif not result.rounds:  # a first supervisor is empty: no pass runs
        assert result.counterexample is None
        assert not all(plan.marked for plan in plans)
    else:
        assert result.counterexample is not None
