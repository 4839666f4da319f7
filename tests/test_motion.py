"""Environment model, motion plans, integration, door profiles, replanning,
and the discrete-event simulator."""

import pytest

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    InputError,
    accepts,
    language_equal,
    language_subset,
    minimize,
    run,
)
from cosynth.langops import project
from cosynth.motion import (
    Environment,
    LabelingMap,
    MotionInfeasible,
    ReplanInfeasible,
    door_profile,
    environment_from_text,
    environment_to_text,
    integrate,
    labeling_from_text,
    labeling_to_text,
    lift_mission_to_regions,
    motion_dfa,
    replan,
    run_language,
    schedule_from_text,
    simulate,
    synthesize_motion_plan,
)
from conftest import REGIONS, brute_accepts, cycle_dfa, lang_set, words_up_to


def case_env() -> Environment:
    return Environment(
        regions=("R1", "R2", "R3"),
        adjacency=(("R1", "R2"), ("R2", "R1"), ("R1", "R3"), ("R3", "R1")),
        doors=("D1l", "D1r", "D2", "D3"),
        door_map={
            ("R1", "R2"): ("D1r", "D2"),
            ("R2", "R1"): ("D1r",),
            ("R1", "R3"): ("D1l", "D3"),
            ("R3", "R1"): ("D1l", "D3"),
        },
        initial_regions={"a2": "R1", "a3": "R1"},
    )


def fire_mission() -> tuple[Dfa, LabelingMap]:
    alpha = EventAlphabet(("D1open", "F", "G2inR1", "h2", "r"),
                          frozenset({"F", "G2inR1", "r"}))
    mission = cycle_dfa(("h2", "F", "D1open", "G2inR1", "r"), alpha)
    pi = LabelingMap(REGIONS, {
        "h2": frozenset({"R1"}), "F": frozenset({"R2"}), "D1open": frozenset({"R2"}),
        "G2inR1": frozenset({"R1"}), "r": frozenset({"R1"}),
    })
    return mission, pi


def test_environment_validation():
    with pytest.raises(InputError):
        Environment(("R1",), (), ("R1",), {}, {})
    with pytest.raises(InputError):
        Environment(("R1", "R2"), (), ("D",), {("R1", "R2"): ("D",)}, {})


def test_motion_dfa_matches_door_map():
    gm = motion_dfa(case_env(), "R1")
    assert run(gm, ("D3", "D3")) == "R1"
    assert run(gm, ("D2",)) == "R2"
    assert run(gm, ("D2", "D2")) is None  # D2 is one-way
    assert set(gm.marked) == set(gm.states)


def test_motion_dfa_single_region():
    env = Environment(("R1",), (), (), {}, {})
    gm = motion_dfa(env, "R1")
    assert gm.states == ("R1",) and not gm.transitions


def test_motion_dfa_rejects_ambiguous_doors():
    env = Environment(
        ("R1", "R2", "R3"),
        (("R1", "R2"), ("R1", "R3")),
        ("D",),
        {("R1", "R2"): ("D",), ("R1", "R3"): ("D",)},
        {},
    )
    with pytest.raises(InputError):
        motion_dfa(env, "R1")


def test_lift_single_region_mission():
    alpha = EventAlphabet(("a", "b"))
    mission = cycle_dfa(("a", "b"), alpha)
    pi = LabelingMap(REGIONS, {"a": frozenset({"R1"}), "b": frozenset({"R1"})})
    lifted = lift_mission_to_regions(mission, pi, "R1")
    assert lang_set(lifted, 3) == {(), ("R1",), ("R1", "R1"), ("R1", "R1", "R1")}


def test_lift_case_study_agent2():
    mission, pi = fire_mission()
    lifted = lift_mission_to_regions(mission, pi, "R1")
    expected = minimize(cycle_dfa(("R1", "R2", "R1"), EventAlphabet(REGIONS)))
    assert language_equal(lifted, expected) is None


def test_lift_requires_labels_for_every_event():
    alpha = EventAlphabet(("a", "b"))
    mission = cycle_dfa(("a", "b"), alpha)
    pi = LabelingMap(REGIONS, {"a": frozenset({"R1"})})
    with pytest.raises(InputError):
        lift_mission_to_regions(mission, pi, "R1")


def test_run_language_semantics():
    gm = motion_dfa(case_env(), "R1")
    strict = run_language(gm, stutter=False)
    stutter = run_language(gm, stutter=True)
    assert brute_accepts(strict, ("R1", "R2", "R1"))
    assert not brute_accepts(strict, ("R1", "R1"))
    assert brute_accepts(stutter, ("R1", "R1"))
    assert not brute_accepts(stutter, ("R2",))  # runs start at the initial region


def test_synthesize_motion_plan_case_study():
    mission, pi = fire_mission()
    gm = motion_dfa(case_env(), "R1")
    plan = synthesize_motion_plan(mission, pi, gm, "R1")
    expected = minimize(cycle_dfa(("R1", "R2", "R1"), EventAlphabet(REGIONS)))
    assert language_equal(plan, expected) is None


def test_synthesize_motion_plan_stay_home():
    alpha = EventAlphabet(("a",))
    mission = cycle_dfa(("a",), alpha)
    pi = LabelingMap(REGIONS, {"a": frozenset({"R1"})})
    gm = motion_dfa(case_env(), "R1")
    plan = synthesize_motion_plan(mission, pi, gm, "R1")
    assert language_equal(plan, Dfa(("0",), EventAlphabet(REGIONS), "0",
                                    {("0", "R1"): "0"}, frozenset({"0"}))) is None


def test_synthesize_motion_plan_infeasible_names_pair():
    alpha = EventAlphabet(("a", "b"))
    mission = cycle_dfa(("a", "b"), alpha)
    pi = LabelingMap(REGIONS, {"a": frozenset({"R2"}), "b": frozenset({"R3"})})
    gm = motion_dfa(case_env(), "R1")
    with pytest.raises(MotionInfeasible) as err:
        synthesize_motion_plan(mission, pi, gm, "R1")
    assert err.value.pair == ("R2", "R3")


def test_door_profile_stay_home_is_epsilon():
    plan = Dfa(("0",), EventAlphabet(REGIONS), "0", {("0", "R1"): "0"}, frozenset({"0"}))
    profile = door_profile(plan, motion_dfa(case_env(), "R1"))
    assert lang_set(profile, 2) == {()}


def test_door_profile_r1r2_leg():
    plan = minimize(cycle_dfa(("R1", "R2", "R1"), EventAlphabet(REGIONS)))
    profile = door_profile(plan, motion_dfa(case_env(), "R1"))
    assert accepts(profile, ("D1r",)) and accepts(profile, ("D2",))
    assert accepts(profile, ("D2", "D1r")) and accepts(profile, ("D1r", "D1r"))
    assert not accepts(profile, ("D1r", "D2"))
    assert not accepts(profile, ("D3",))


def test_door_profile_r1r3_cycle_product():
    plan = minimize(cycle_dfa(("R1", "R3", "R1"), EventAlphabet(REGIONS)))
    profile = door_profile(plan, motion_dfa(case_env(), "R1"))
    for first in ("D1l", "D3"):
        for second in ("D1l", "D3"):
            assert accepts(profile, (first, second))
    assert not accepts(profile, ("D2",))


def test_door_profile_soundness_enumeration():
    # every profile word, run on the motion model, traces a plan word
    mission, pi = fire_mission()
    gm = motion_dfa(case_env(), "R1")
    plan = synthesize_motion_plan(mission, pi, gm, "R1")
    profile = door_profile(plan, gm)
    for w in words_up_to(gm.alphabet.events, 8):
        if not brute_accepts(profile, w):
            continue
        state = gm.initial
        trace = (state,)
        for d in w:
            state = gm.transitions[(state, d)]
            trace += (state,)
        assert brute_accepts(plan, trace if w else (gm.initial,)) or not w


def test_integrate_case_study_agent2():
    mission, pi = fire_mission()
    gm = motion_dfa(case_env(), "R1")
    plan = synthesize_motion_plan(mission, pi, gm, "R1")
    lp = integrate(mission, plan, pi, "R1", gm, agent="a2")
    expected = cycle_dfa(("R1", "h2", "R2", "F", "D1open", "R1", "G2inR1", "r"),
                         lp.dfa.alphabet)
    assert language_equal(lp.dfa, expected) is None
    # projection coherence
    assert language_equal(minimize(project(lp.dfa, mission.alphabet.events)), minimize(mission)) is None
    assert language_equal(minimize(project(lp.dfa, REGIONS)), plan) is None


def test_integrate_empty_mission():
    alpha = EventAlphabet(("a",))
    mission = Dfa(("0",), alpha, "0", {}, frozenset({"0"}))
    pi = LabelingMap(REGIONS, {"a": frozenset({"R1"})})
    gm = motion_dfa(case_env(), "R1")
    plan = synthesize_motion_plan(mission, pi, gm, "R1")
    lp = integrate(mission, plan, pi, "R1", gm)
    assert lang_set(lp.dfa, 2) == {(), ("R1",)}


def _agent3_plan():
    alpha = EventAlphabet(
        ("Close", "D1close", "D1open", "G2inR1", "G3inR1", "G3inR3", "Open", "h3", "r"),
        frozenset({"Close", "D1close", "D1open", "G3inR1", "G3inR3", "Open", "r"}),
    )
    mission = cycle_dfa(
        ("h3", "G3inR3", "Open", "D1open", "G2inR1", "Close", "D1close", "G3inR1", "r"), alpha
    )
    pi = LabelingMap(REGIONS, {
        "h3": frozenset({"R1"}), "G3inR3": frozenset({"R3"}), "Open": frozenset({"R3"}),
        "D1open": frozenset({"R3"}), "G2inR1": frozenset({"R3"}), "Close": frozenset({"R3"}),
        "D1close": frozenset({"R3"}), "G3inR1": frozenset({"R1"}), "r": frozenset({"R1"}),
    })
    gm = motion_dfa(case_env(), "R1")
    plan = synthesize_motion_plan(mission, pi, gm, "R1")
    return integrate(mission, plan, pi, "R1", gm, agent="a3"), gm


def test_replan_identity_when_real_matches_nominal():
    lp, gm = _agent3_plan()
    new_lp = replan(lp, gm, case_env())
    assert language_equal(new_lp.dfa, lp.dfa) is None
    assert language_equal(new_lp.profile, lp.profile) is None


def test_replan_closed_door_with_alternative():
    lp, gm = _agent3_plan()
    real = case_env().without_doors({"D3"})
    new_lp = replan(lp, gm, real)
    assert language_equal(new_lp.dfa, lp.dfa) is None  # plan itself unchanged
    assert language_equal(new_lp.mission, lp.mission) is None
    for w in words_up_to(("D1l", "D3"), 3):
        if "D3" in w:
            assert not accepts(new_lp.profile, w)
    assert accepts(new_lp.profile, ("D1l", "D1l"))


def test_replan_mission_projection_is_never_altered():
    lp, gm = _agent3_plan()
    for closed in ({"D3"}, {"D1l"}, {"D2"}):
        new_lp = replan(lp, gm, case_env().without_doors(closed))
        assert language_equal(
            minimize(project(new_lp.dfa, lp.mission.alphabet.events)), minimize(lp.mission)
        ) is None


def test_replan_splices_intermediate_regions():
    # ring environment: A-B direct door breaks; the detour A-C-B is spliced in
    env = Environment(
        regions=("A", "B", "C"),
        adjacency=(("A", "B"), ("A", "C"), ("C", "B"), ("B", "A")),
        doors=("d_ab", "d_ac", "d_cb", "d_ba"),
        door_map={("A", "B"): ("d_ab",), ("A", "C"): ("d_ac",),
                  ("C", "B"): ("d_cb",), ("B", "A"): ("d_ba",)},
        initial_regions={"bot": "A"},
    )
    alpha = EventAlphabet(("go", "back"), frozenset({"go", "back"}))
    mission = cycle_dfa(("go", "back"), alpha)
    pi = LabelingMap(("A", "B", "C"), {"go": frozenset({"B"}), "back": frozenset({"A"})})
    gm = motion_dfa(env, "A")
    plan = synthesize_motion_plan(mission, pi, gm, "A")
    lp = integrate(mission, plan, pi, "A", gm, agent="bot")
    real = env.without_doors({"d_ab"})
    new_lp = replan(lp, gm, real)
    assert accepts(new_lp.dfa, ("A", "C", "B", "go"))
    assert not accepts(new_lp.dfa, ("A", "B"))
    assert language_equal(
        minimize(project(new_lp.dfa, ("go", "back"))), minimize(mission)
    ) is None
    # replanned motion is executable in the real environment
    real_motion = motion_dfa(real, "A")
    assert language_subset(new_lp.motion_plan, run_language(real_motion, stutter=True)) is None


def test_replan_infeasible_names_the_gap():
    lp, gm = _agent3_plan()
    real = case_env().without_doors({"D3", "D1l"})
    with pytest.raises(ReplanInfeasible) as err:
        replan(lp, gm, real)
    assert set(err.value.pair) == {"R1", "R3"}


def test_simulate_empty_plan_set():
    result = simulate([], case_env())
    assert result.trace == [] and result.completed


def test_simulate_single_agent_cycle():
    lp, _ = _agent3_plan()
    # G2inR1 is shared with an absent agent here, so the lone agent simply
    # fires it itself once its plan allows
    result = simulate([lp], case_env(), stop_event="r", max_steps=50)
    assert result.completed
    assert any(" r mission" in line for line in result.trace)


def test_simulate_door_failure_triggers_one_replan():
    lp, _ = _agent3_plan()
    result = simulate([lp], case_env(), schedule=[(3, "D3", "closed")],
                      stop_event="r", max_steps=60)
    assert result.completed
    replans = [line for line in result.trace if line.endswith("replan")]
    assert len(replans) == 1 and " a3 " in replans[0]


def test_simulate_deadlock_reported():
    # an agent whose mission waits for a shared event no one else offers
    alpha1 = EventAlphabet(("sync", "solo"))
    alpha2 = EventAlphabet(("sync",))
    m1 = cycle_dfa(("solo", "sync"), alpha1)
    m2 = Dfa(("0",), alpha2, "0", {}, frozenset({"0"}))
    env = Environment(("A",), (), (), {}, {"one": "A", "two": "A"})
    pi = LabelingMap(("A",), {"solo": frozenset({"A"}), "sync": frozenset({"A"})})
    pi2 = LabelingMap(("A",), {"sync": frozenset({"A"})})
    gm = motion_dfa(env, "A")
    lp1 = integrate(m1, synthesize_motion_plan(m1, pi, gm, "A"), pi, "A", gm, agent="one")
    lp2 = integrate(m2, synthesize_motion_plan(m2, pi2, gm, "A"), pi2, "A", gm, agent="two")
    result = simulate([lp1, lp2], env, max_steps=20)
    assert not result.completed and result.deadlock is not None


def test_environment_round_trip():
    env = case_env()
    text = environment_to_text(env)
    back = environment_from_text(text)
    assert environment_to_text(back) == text


def test_labeling_round_trip():
    _, pi = fire_mission()
    text = labeling_to_text({"a2": pi})
    back = labeling_from_text(text, REGIONS)
    assert back["a2"].mapping == pi.mapping


def test_schedule_parsing():
    assert schedule_from_text("3 D3 closed\n# comment\n7 D3 open\n") == [
        (3, "D3", "closed"), (7, "D3", "open")]
    with pytest.raises(InputError):
        schedule_from_text("x D3 closed\n")
