"""Verification: the product check, the assume-guarantee machinery (triples,
weakest assumptions, the symmetric rule), counterexample analysis, mission
repair, and the refinement loop."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    accepts,
    all_marked,
    empty_dfa,
    language_empty,
    language_subset,
    minimize,
    parallel_compose_all,
    universal_dfa,
    word_dfa,
    words_dfa,
)
from cosynth.langops import project_word, satisfies, widen_alphabet
from cosynth.synthesis import SynthesisProblem, synthesize_supervisor
from cosynth.verification import (
    Verdict,
    analyze_counterexample,
    assume_guarantee,
    check_triple,
    choose_repair,
    cut_behavior,
    cv_membership,
    is_live,
    learn_assumption,
    sym_n_check,
    verify,
    verify_and_refine,
    weakest_assumption,
)
from conftest import (
    brute_accepts,
    chain_dfa,
    cycle_dfa,
    lang_set,
    random_dfa,
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
    assert check_triple(universal_dfa(AB), m, universal_dfa(AB)) is None


def test_triple_violation_witness():
    m = Dfa(("0", "1"), AB, "0", {("0", "a"): "1", ("1", "b"): "0"}, frozenset({"0", "1"}))
    prop = word_dfa(("a",), AB)
    assert check_triple(universal_dfa(AB), m, prop) == ("a", "b")


def test_triple_constrained_by_assumption():
    # the assumption forbidding s keeps the emitter from ever violating
    m = emitter()
    prop = no_violation()
    assumption = words_dfa([()], EventAlphabet(("s",)))
    assert check_triple(assumption, m, prop) is None


def test_cv_membership_epsilon():
    # over the full interface the empty assumption blocks every event, so the
    # emitter stays safe; with the interface reduced to s, a module that
    # violates on its own private event is condemned even at epsilon
    assert cv_membership((), emitter(), no_violation(), SV) == 1
    rogue = Dfa(("0", "1"), SV, "0", {("0", "v"): "1"}, frozenset({"0", "1"}))
    assert cv_membership((), rogue, no_violation(), EventAlphabet(("s",))) == 0
    calm = Dfa(("0", "1"), SV, "0", {("0", "s"): "1"}, frozenset({"0", "1"}))
    assert cv_membership((), calm, no_violation(), SV) == 1


def test_cv_membership_matches_triple_with_word_dfa():
    m = emitter()
    prop = no_violation()
    iface = EventAlphabet(("s",))
    for t in words_up_to(("s",), 3):
        expected = 0 if check_triple(word_dfa(t, iface), m, prop) else 1
        assert cv_membership(t, m, prop, iface) == expected


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
    assert learn_assumption(module, prop, iface) == aw


def test_lemma_membership_characterisation():
    # words admitted by the learned assumption are exactly those whose prefix
    # language, used as an assumption, keeps the module safe
    module = emitter()
    prop = no_violation()
    iface = EventAlphabet(("s",))
    learned = learn_assumption(module, prop, iface)
    for t in words_up_to(("s",), 4):
        in_assumption = brute_accepts(learned, t)
        triple_holds = check_triple(word_dfa(t, iface), module, prop) is None
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


# -- the symmetric rule ----------------------------------------------------------


def test_sym_n_trivial():
    assert sym_n_check([universal_dfa(AB)], universal_dfa(AB)) is None


def test_sym_n_single_agent_counterexample():
    assumption = words_dfa([()], AB)  # complement accepts everything non-empty
    prop = words_dfa([(), ("a",)], AB)
    ce = sym_n_check([assumption], prop)
    assert ce is not None and not brute_accepts(prop, ce)


def test_analyze_first_agent_rejection():
    verdict = analyze_counterexample(("a",), [empty_dfa(AB)], universal_dfa(AB))
    assert verdict.outcome == "refine" and verdict.agent == 0


def test_analyze_second_agent_rejection():
    m1 = universal_dfa(EventAlphabet(("a",)))
    m2 = words_dfa([()], EventAlphabet(("b",)))
    prop = words_dfa([()], AB)
    verdict = analyze_counterexample(("b",), [m1, m2], prop)
    assert verdict.outcome == "refine" and verdict.agent == 1


def test_analyze_common_violation():
    m1 = universal_dfa(EventAlphabet(("a",)))
    m2 = universal_dfa(EventAlphabet(("b",)))
    prop = words_dfa([()], AB)
    verdict = analyze_counterexample(("a", "b"), [m1, m2], prop)
    assert verdict.outcome == "violated"


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


def test_verify_agrees_with_monolithic_on_random_instances():
    rng = random.Random(51)
    agree = 0
    for _ in range(30):
        m1 = all_marked(random_dfa(rng, 3, ("a", "s"), density=0.8))
        m2 = all_marked(random_dfa(rng, 3, ("b", "s"), density=0.8))
        prop_events = ("a", "b", "s")
        prop = all_marked(random_dfa(rng, 4, prop_events, density=0.85))
        if language_empty(prop):
            continue
        verdict, _, _ = assume_guarantee([m1, m2], prop)
        product = parallel_compose_all([m1, m2])
        direct = satisfies(widen_alphabet(product, prop.alphabet), prop)
        assert verdict.holds() == (direct is None)
        agree += 1
    assert agree >= 20


def test_verdict_serialisation():
    v = Verdict("violated", counterexample=("a", "b"), agent=None)
    text = v.render()
    assert "outcome: violated" in text and "a b" in text


# -- the refinement loop -----------------------------------------------------------


def _synth(spec, plant):
    return synthesize_supervisor(SynthesisProblem(spec, spec.alphabet, plant_dfa=plant))


def test_refine_separable_mission_needs_no_rounds():
    a1 = EventAlphabet(("x",), frozenset({"x"}))
    a2 = EventAlphabet(("y",), frozenset({"y"}))
    s1 = universal_dfa(a1)
    s2 = universal_dfa(a2)
    prop = universal_dfa(EventAlphabet(("x", "y"), frozenset({"x", "y"})))
    result = verify_and_refine([s1, s2], [s1, s2], prop, _synth)
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
    result = verify_and_refine([s1, s2], [s1, s2], prop, _synth)
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
    result = verify_and_refine([p1, s2], [p1, s2], prop, _synth)
    assert result.status == "infeasible"
    assert result.counterexample is not None


def test_refine_prunes_conflicting_choice():
    # agent 1 may pick g (safe) or s (forbidden jointly with agent 2's t)
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
    prop = widen_alphabet(minimize(good), glob)
    result = verify_and_refine([p1, p2], [p1, p2], prop, _synth)
    assert result.status == "holds"
    assert result.refinement_rounds == 1
    assert not accepts(result.plans[0], ("s",))
    assert accepts(result.plans[0], ("g",))
    # monotone shrinkage held round over round
    assert language_subset(result.plans[0], p1) is None
