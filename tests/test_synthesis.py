"""Supervisor learning without a plant model, checked against direct supC."""

import random
import warnings

import pytest

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    InputError,
    accessible,
    all_marked,
    dfa_to_text,
    empty_dfa,
    language_empty,
    language_equal,
    language_subset,
    minimize,
    parallel_compose,
    word_dfa,
)
from cosynth.langops import is_controllable, sup_c, widen_like
from cosynth.synthesis import (
    IllegalBehaviorSet,
    SupervisorTeacher,
    SynthesisProblem,
    d_ui,
    learn_supervisor,
    synthesize_supervisor,
)
from conftest import (
    lang_set,
    ls_membership,
    random_dfa,
    reference_class_cut_k,
    reference_compose,
    reference_supc_fixed_point,
)

AU = EventAlphabet(("a", "u"), frozenset({"a"}))


def chain_plant() -> Dfa:
    return Dfa(("0", "1", "2"), AU, "0", {("0", "a"): "1", ("1", "u"): "2"},
               frozenset({"0", "1", "2"}))


def plant_member(plant):
    def member(word):
        state = plant.initial
        for s in word:
            nxt = plant.transitions.get((state, s))
            if nxt is None:
                return False
            state = nxt
        return True

    return member


def test_d_ui_empty_set():
    assert d_ui([], plant_member(chain_plant()), AU) == set()


def test_d_ui_strips_uncontrollable_suffixes():
    got = d_ui([("a", "u")], plant_member(chain_plant()), AU)
    assert got == {("a",), ("a", "u")}


def test_ls_membership_round_one_is_spec_membership():
    spec = word_dfa(("a",), AU)
    member = plant_member(chain_plant())
    assert ls_membership((), 1, spec, [], member) == 1
    assert ls_membership(("a", "u"), 1, spec, [], member) == 0


def test_ls_membership_later_rounds_apply_cuts():
    spec = word_dfa(("a",), AU)
    member = plant_member(chain_plant())
    illegal = IllegalBehaviorSet(words=[("a", "u")], generation=2)
    assert ls_membership(("a",), 2, spec, illegal, member) == 0
    assert ls_membership((), 2, spec, illegal, member) == 1


def _teacher_of(spec: Dfa) -> SupervisorTeacher:
    """A teacher whose plant is the spec itself, so K_j stays the spec."""
    plant = all_marked(spec)
    return SupervisorTeacher(spec, AU, plant_member(plant), plant_dfa=plant)


def test_ls_counterexample_none_when_equal():
    spec = word_dfa(("a",), AU)
    assert _teacher_of(spec).conjecture(spec) is None


def test_ls_counterexample_symmetric_difference():
    eps_only = word_dfa((), AU)
    both = word_dfa(("a",), AU)
    assert _teacher_of(both).conjecture(eps_only) == ("a",)


def test_illegal_set_growth_is_monotone():
    illegal = IllegalBehaviorSet()
    assert illegal.add(("a", "u"))
    assert not illegal.add(("a", "u"))
    assert illegal.generation == 2


def test_supervisor_all_controllable_returns_spec():
    alpha = EventAlphabet(("a", "u"), frozenset({"a", "u"}))
    spec = widen_like(word_dfa(("a",), AU), alpha)
    plant = widen_like(chain_plant(), alpha)
    got = synthesize_supervisor(SynthesisProblem(spec, alpha, plant_dfa=plant))
    assert language_equal(got, spec) is None
    assert set(got.marked) == set(got.states)


def test_supervisor_chain_plant_cuts_to_epsilon():
    got = synthesize_supervisor(SynthesisProblem(word_dfa(("a",), AU), AU, plant_dfa=chain_plant()))
    assert lang_set(got, 3) == {()}


def test_supervisor_requires_prefix_closed_nonempty_spec():
    not_closed = Dfa(("0", "1"), AU, "0", {("0", "a"): "1"}, frozenset({"1"}))
    with pytest.raises(InputError, match="requires a prefix-closed mission spec"):
        synthesize_supervisor(SynthesisProblem(not_closed, AU, plant_dfa=chain_plant()))
    with pytest.raises(InputError, match="requires a non-empty mission spec"):
        synthesize_supervisor(SynthesisProblem(empty_dfa(AU), AU, plant_dfa=chain_plant()))


def test_k_sequence_monotonically_decreasing():
    spec = word_dfa(("a",), AU)
    teacher = SupervisorTeacher(minimize(spec), AU, plant_member(chain_plant()),
                                plant_dfa=chain_plant())
    from cosynth.lstar import learn

    learn(teacher, AU)
    for earlier, later in zip(teacher.k_history, teacher.k_history[1:]):
        assert language_subset(later, earlier) is None


def test_class_cut_matches_the_string_product_after_every_record():
    # with a plant automaton, K_j comes from one walk of the completed plant
    # and spec in which the condemned classes get no moves and no mark; after
    # every recorded illegal word it must equal the string-named cut product
    # subtracted from the spec
    from cosynth.lstar import learn

    rng = random.Random(23)
    checked = partial = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(150):
            events = tuple("abcd"[: rng.randint(2, 4)])
            alpha = EventAlphabet(events, frozenset(e for e in events if rng.random() < 0.6))
            plant = widen_like(all_marked(random_dfa(rng, 5, events, density=0.75)), alpha)
            # the spec keeps the initial moves, so that fewer cuts empty it
            strans = {k: v for k, v in plant.transitions.items()
                      if k[0] == plant.initial or rng.random() < 0.8}
            spec = minimize(accessible(Dfa(plant.states, alpha, plant.initial, strans,
                                           frozenset(plant.states))))
            teacher = SupervisorTeacher(spec, alpha, plant_member(plant), plant_dfa=plant)
            record = teacher._record

            def checked_record(word, teacher=teacher, record=record):
                nonlocal checked, partial
                record(word)
                assert dfa_to_text(teacher.k) == dfa_to_text(reference_class_cut_k(teacher))
                checked += 1
                partial += not language_empty(teacher.k)

            teacher._record = checked_record
            learn(teacher, alpha)
    assert checked >= 40 and partial >= 10


def test_membership_interception_validates_spec_containment():
    # a spec word outside the plant language must surface as an input error
    bad_spec = word_dfa(("u",), AU)
    problem = SynthesisProblem(bad_spec, AU, plant_dfa=chain_plant())
    with pytest.raises(InputError):
        synthesize_supervisor(problem)


def test_supervisor_with_bare_membership_oracle():
    # the plant is available only as a membership function; the bounded audit
    # still finds the uncontrollable escape on this small instance
    plant = chain_plant()
    problem = SynthesisProblem(
        word_dfa(("a",), AU), AU, plant_membership=plant_member(plant), plant_dfa=None
    )
    got = synthesize_supervisor(problem)
    assert lang_set(got, 3) == {()}


def test_random_instances_match_direct_supc_and_are_controllable():
    rng = random.Random(41)
    empty = nonempty = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(40):
            events = tuple("abc"[: rng.randint(2, 3)])
            controllable = frozenset(e for e in events if rng.random() < 0.6)
            alpha = EventAlphabet(events, controllable)
            plant = widen_like(all_marked(random_dfa(rng, 5, events, density=0.75)), alpha)
            strans = {k: v for k, v in plant.transitions.items() if rng.random() < 0.8}
            spec = accessible(Dfa(plant.states, alpha, plant.initial, strans,
                                  frozenset(plant.states)))
            got = learn_supervisor(SynthesisProblem(spec, alpha, plant_dfa=plant))
            oracle = sup_c(spec, plant)
            fixed = reference_supc_fixed_point(minimize(spec), minimize(plant), alpha)
            assert language_equal(oracle, fixed) is None
            # the closed loop S ‖ G is S itself, so the mission layer verifies
            # S as the plan; an empty S is the canonical empty automaton, the
            # closed loop in which not even idling is enforceable
            supervisor = synthesize_supervisor(SynthesisProblem(spec, alpha, plant_dfa=plant))
            closed = (empty_dfa(alpha) if language_empty(supervisor)
                      else minimize(all_marked(reference_compose([supervisor, plant]))))
            assert dfa_to_text(closed) == dfa_to_text(supervisor)
            if language_empty(oracle):
                assert language_empty(got)
                empty += 1
                continue
            nonempty += 1
            closed_loop = all_marked(parallel_compose(got, plant))
            assert language_equal(closed_loop, oracle) is None
            assert is_controllable(closed_loop, plant) is None
    assert nonempty >= 10 and empty >= 1
