"""Environment model, motion plans, integration, door profiles, replanning,
and the discrete-event simulator."""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosynth
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
    _motion_gap,
    door_profile,
    environment_from_text,
    environment_to_text,
    integrate,
    labeling_from_text,
    labeling_to_text,
    motion_dfa,
    replan,
    schedule_from_text,
    simulate,
)
from conftest import (
    REGIONS,
    brute_accepts,
    brute_project,
    chain_dfa,
    cycle_dfa,
    generated_up_to,
    lang_set,
    random_dfa,
    reference_replan_dfa,
    reference_run_language,
    validate_integrated_clauses,
    words_up_to,
)


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
    lifted = integrate(mission, pi, "R1", motion_dfa(case_env(), "R1")).motion_plan
    assert lang_set(lifted, 3) == {(), ("R1",), ("R1", "R1"), ("R1", "R1", "R1")}


def test_lift_case_study_agent2():
    mission, pi = fire_mission()
    lifted = integrate(mission, pi, "R1", motion_dfa(case_env(), "R1")).motion_plan
    expected = minimize(cycle_dfa(("R1", "R2", "R1"), EventAlphabet(REGIONS)))
    assert language_equal(lifted, expected) is None


def test_lift_requires_labels_for_every_event():
    alpha = EventAlphabet(("a", "b"))
    mission = cycle_dfa(("a", "b"), alpha)
    pi = LabelingMap(REGIONS, {"a": frozenset({"R1"})})
    with pytest.raises(InputError):
        integrate(mission, pi, "R1", motion_dfa(case_env(), "R1"))


def test_run_language_semantics():
    gm = motion_dfa(case_env(), "R1")
    strict = reference_run_language(gm, stutter=False)
    stutter = reference_run_language(gm, stutter=True)
    assert brute_accepts(strict, ("R1", "R2", "R1"))
    assert not brute_accepts(strict, ("R1", "R1"))
    assert brute_accepts(stutter, ("R1", "R1"))
    assert not brute_accepts(stutter, ("R2",))  # runs start at the initial region


def test_synthesize_motion_plan_case_study():
    mission, pi = fire_mission()
    gm = motion_dfa(case_env(), "R1")
    plan = integrate(mission, pi, "R1", gm).motion_plan
    expected = minimize(cycle_dfa(("R1", "R2", "R1"), EventAlphabet(REGIONS)))
    assert language_equal(plan, expected) is None


def test_synthesize_motion_plan_stay_home():
    alpha = EventAlphabet(("a",))
    mission = cycle_dfa(("a",), alpha)
    pi = LabelingMap(REGIONS, {"a": frozenset({"R1"})})
    gm = motion_dfa(case_env(), "R1")
    plan = integrate(mission, pi, "R1", gm).motion_plan
    assert language_equal(plan, Dfa(("0",), EventAlphabet(REGIONS), "0",
                                    {("0", "R1"): "0"}, frozenset({"0"}))) is None


def test_synthesize_motion_plan_infeasible_names_pair():
    alpha = EventAlphabet(("a", "b"))
    mission = cycle_dfa(("a", "b"), alpha)
    pi = LabelingMap(REGIONS, {"a": frozenset({"R2"}), "b": frozenset({"R3"})})
    gm = motion_dfa(case_env(), "R1")
    with pytest.raises(MotionInfeasible) as err:
        integrate(mission, pi, "R1", gm)
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
    plan = integrate(mission, pi, "R1", gm).motion_plan
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
    lp = integrate(mission, pi, "R1", gm, agent="a2")
    expected = cycle_dfa(("R1", "h2", "R2", "F", "D1open", "R1", "G2inR1", "r"),
                         lp.dfa.alphabet)
    assert language_equal(lp.dfa, expected) is None
    # projection coherence
    assert language_equal(minimize(project(lp.dfa, mission.alphabet.events)), minimize(mission)) is None
    itinerary = minimize(cycle_dfa(("R1", "R2", "R1"), EventAlphabet(REGIONS)))
    assert language_equal(minimize(project(lp.dfa, REGIONS)), itinerary) is None
    assert lp.motion_plan == project(lp.dfa, REGIONS)


def test_integrate_empty_mission():
    alpha = EventAlphabet(("a",))
    mission = Dfa(("0",), alpha, "0", {}, frozenset({"0"}))
    pi = LabelingMap(REGIONS, {"a": frozenset({"R1"})})
    gm = motion_dfa(case_env(), "R1")
    lp = integrate(mission, pi, "R1", gm)
    assert lang_set(lp.dfa, 2) == {(), ("R1",)}


def test_integrate_interleaves_once(monkeypatch):
    import cosynth.motion as motion

    calls = []
    original = motion._interleave
    monkeypatch.setattr(motion, "_interleave", lambda *args: calls.append(args) or original(*args))
    mission, pi = fire_mission()
    integrate(mission, pi, "R1", motion_dfa(case_env(), "R1"))
    assert len(calls) == 1


def test_clause_walk_has_no_depth():
    # 13 events in R1 and then one in R2 with no region move between them:
    # the clause-2 breach is the 15th symbol of the only plan word
    alpha = EventAlphabet(REGIONS + ("a", "b"))
    pi = LabelingMap(REGIONS, {"a": frozenset({"R1"}), "b": frozenset({"R2"})})
    good = ("R1",) + ("a",) * 13
    validate_integrated_clauses(chain_dfa(good, alpha, mark_all=True), pi, "R1")
    with pytest.raises(AssertionError, match="disagree on their region"):
        validate_integrated_clauses(chain_dfa(good + ("b",), alpha, mark_all=True), pi, "R1")
    with pytest.raises(AssertionError, match="outside"):
        validate_integrated_clauses(chain_dfa(good + ("R3", "b"), alpha, mark_all=True), pi, "R1")


def corridor_env() -> Environment:
    door_map = {("C0", "C1"): ("k01",), ("C1", "C0"): ("k01",),
                ("C1", "C2"): ("k12",), ("C2", "C1"): ("k12",)}
    return Environment(("C0", "C1", "C2"), tuple(door_map), ("k01", "k12"), door_map, {})


def _lifted_gap(mission: Dfa, pi: LabelingMap, v0: str, env: Environment, bound: int):
    """A region change without a door in a lifted mission word of at most ``bound`` events.

    The agent starts in ``v0``; before each event it stays, if π labels the
    event with its region, or moves to any other region π labels it with.
    """
    frontier = {(mission.initial, v0)}
    for _ in range(bound):
        nxt = set()
        for q, v in frontier:
            for e in mission.alphabet.events:
                q2 = mission.transitions.get((q, e))
                if q2 is None:
                    continue
                for v2 in pi.of(e):
                    if v2 != v and not env.doors_between(v, v2):
                        return v, v2
                    nxt.add((q2, v2))
        frontier = nxt
    return None


@settings(max_examples=120, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_integrate_matches_word_oracles(rng):
    env = rng.choice([case_env(), corridor_env()])
    events = ("a", "b", "c")[: rng.randint(1, 3)]
    mission = random_dfa(rng, 3, events, marked_p=1.0)
    pi = LabelingMap(env.regions, {
        e: frozenset(rng.sample(env.regions, rng.randint(1, 2))) for e in events
    })
    v0 = rng.choice(env.regions)
    # every (mission state, region) pair is reached within this many events
    gap = _lifted_gap(mission, pi, v0, env, len(mission.states) * len(env.regions))
    try:
        lp = integrate(mission, pi, v0, motion_dfa(env, v0))
    except MotionInfeasible as err:
        assert gap is not None
        v, v2 = err.pair
        assert v != v2 and not env.doors_between(v, v2)
        return
    assert gap is None
    regions = set(env.regions)
    erased = set()
    for w in generated_up_to(lp.dfa, 6):
        mission_word = brute_project(w, events)
        assert brute_accepts(mission, mission_word), w
        erased.add(mission_word)
        region = None
        for symbol in w:
            if symbol in regions:
                region = symbol
            else:
                assert region in pi.of(symbol), w
    # a mission word of n events needs at most 3n symbols in the plan
    assert {m for m in erased if len(m) <= 2} == lang_set(mission, 2)
    # integration keeps the mission exactly and fires every event where π
    # allows it, on plans of any length
    assert language_equal(project(lp.dfa, events), mission) is None
    validate_integrated_clauses(lp.dfa, pi, v0)
    for w in generated_up_to(lp.motion_plan, 6):
        assert w[:1] in ((), (v0,)), w
        assert all(v == v2 or env.doors_between(v, v2) for v, v2 in zip(w, w[1:])), w


@settings(max_examples=300, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_motion_gap_is_the_last_pair_of_the_run_language_witness(rng):
    # the gap walk stops where the subset check against the stutter-closed
    # run language does, whatever the plan's event order
    door_map = {(a, b): (f"d{a[1]}{b[1]}",) for a in REGIONS for b in REGIONS
                if a != b and rng.random() < 0.5}
    env = Environment(REGIONS, tuple(door_map),
                      tuple(d for ds in door_map.values() for d in ds), door_map)
    gm = motion_dfa(env, rng.choice(REGIONS))
    plan = random_dfa(rng, 5, rng.sample(REGIONS, len(REGIONS)),
                      density=rng.choice((0.3, 0.6, 0.9)), marked_p=1.0)
    w = language_subset(plan, reference_run_language(gm, stutter=True, regions=REGIONS))
    expected = None if w is None else (gm.initial, w[0]) if len(w) == 1 else w[-2:]
    assert _motion_gap(plan, gm) == expected


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
    return integrate(mission, pi, "R1", gm, agent="a3"), gm


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


def test_replan_keeps_a_plan_the_real_environment_still_serves(monkeypatch):
    import cosynth.motion as motion

    lp, gm = _agent3_plan()
    calls = []
    original = motion.project
    monkeypatch.setattr(motion, "project", lambda *args: calls.append(args) or original(*args))
    new_lp = replan(lp, gm, case_env().without_doors({"D3"}))
    assert new_lp.dfa is lp.dfa and new_lp.motion_plan is lp.motion_plan
    assert calls == []  # nothing is projected again


def test_replan_accepts_regions_the_start_cannot_reach():
    # R3 has a door out but none in, so the motion model from R1 trims it
    door_map = {("R1", "R2"): ("d12",), ("R2", "R1"): ("d21",), ("R3", "R1"): ("d31",)}
    env = Environment(REGIONS, tuple(door_map), ("d12", "d21", "d31"), door_map, {"bot": "R1"})
    alpha = EventAlphabet(("go", "back"), frozenset({"go", "back"}))
    pi = LabelingMap(REGIONS, {"go": frozenset({"R2"}), "back": frozenset({"R1"})})
    gm = motion_dfa(env, "R1")
    assert set(gm.states) == {"R1", "R2"}
    lp = integrate(cycle_dfa(("go", "back"), alpha), pi, "R1", gm, agent="bot")
    assert replan(lp, gm, env).dfa is lp.dfa
    # a real region the plan's labeling cannot name is still refused
    wider = replace(env, regions=REGIONS + ("R4",))
    with pytest.raises(InputError, match="must share regions and doors"):
        replan(lp, gm, wider)


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
    lp = integrate(mission, pi, "A", gm, agent="bot")
    real = env.without_doors({"d_ab"})
    new_lp = replan(lp, gm, real)
    assert accepts(new_lp.dfa, ("A", "C", "B", "go"))
    assert not accepts(new_lp.dfa, ("A", "B"))
    assert language_equal(
        minimize(project(new_lp.dfa, ("go", "back"))), minimize(mission)
    ) is None
    # replanned motion is executable in the real environment
    real_runs = reference_run_language(motion_dfa(real, "A"), stutter=True)
    assert language_subset(new_lp.motion_plan, real_runs) is None


def test_replan_infeasible_names_the_gap():
    lp, gm = _agent3_plan()
    real = case_env().without_doors({"D3", "D1l"})
    with pytest.raises(ReplanInfeasible) as err:
        replan(lp, gm, real)
    assert set(err.value.pair) == {"R1", "R3"}


def _random_patrol(rng):
    """A ring or corridor of 3-5 rooms and the integrated plan of a patrol.

    The patrol walks a random route out from R0 and back, choosing one of
    one or two events in every room; some choices jump to another point of
    the route whose room is next door, so plan states are reached from
    different regions.  Some route points also offer a side trip to a
    neighbouring room, so one plan state has two region moves, unless the
    side trips leave the mission without a motion plan.
    """
    n = rng.randint(3, 5)
    rooms = tuple(f"R{j}" for j in range(n))
    links = [(j, j + 1) for j in range(n - 1)] + ([(n - 1, 0)] if rng.random() < 0.7 else [])
    door_map: dict[tuple[str, str], tuple[str, ...]] = {}
    for j, k in links:
        doors = tuple(f"d{j}{x}" for x in "ab"[: rng.randint(1, 2)])
        door_map[(rooms[j], rooms[k])] = doors
        door_map[(rooms[k], rooms[j])] = doors
    doors = tuple(sorted({d for ds in door_map.values() for d in ds}))
    env = Environment(rooms, tuple(door_map), doors, door_map, {"bot": "R0"})

    def near(a: str, b: str) -> bool:
        return a == b or (a, b) in door_map

    route = ["R0"]
    for _ in range(rng.randint(1, 5)):
        route.append(rng.choice([r for r in rooms if near(route[-1], r)]))
    while not near(route[-1], "R0"):
        route.append(rooms[int(route[-1][1:]) - 1])
    labels, transitions = {}, {}
    for i, room in enumerate(route):
        for c in "xy"[: rng.randint(1, 2)]:
            e = f"e{i}{c}"
            labels[e] = frozenset({room})
            targets = [t for t, r in enumerate(route) if near(room, r)]
            nxt = (i + 1) % len(route)
            transitions[(str(i), e)] = str(rng.choice(targets) if rng.random() < 0.3 else nxt)
    side_trips = {
        f"e{i}z": (str(i), rng.choice([r for r in rooms if r != room and near(room, r)]))
        for i, room in enumerate(route) if rng.random() < 0.5
    }
    states = tuple(str(i) for i in range(len(route)))
    gm = motion_dfa(env, "R0")
    for trips in (side_trips, {}):
        events = tuple(labels) + tuple(trips)
        mission = Dfa(states, EventAlphabet(events, frozenset(events)), "0",
                      {**transitions, **{(q, e): q for e, (q, _) in trips.items()}},
                      frozenset(states))
        pi = LabelingMap(rooms, {**labels, **{e: frozenset({r}) for e, (_, r) in trips.items()}})
        try:
            return integrate(mission, pi, "R0", gm, agent="bot"), gm, env
        except MotionInfeasible:
            continue
    raise AssertionError("a route without side trips always has a motion plan")


def _cut(rng, env: Environment) -> Environment:
    """Close a random door, or all doors of a random adjacency, or nothing."""
    links = sorted({d[:-1] for d in env.doors})
    choice = rng.choice(list(env.doors) + 3 * links + [None])
    return env.without_doors({d for d in env.doors if choice in (d, d[:-1])})


def _replan_and_reference(lp, gm, real):
    """Both replanned automata, or (None, None) when both find a gap."""
    try:
        ref = reference_replan_dfa(lp, real)
    except ReplanInfeasible:
        ref = None
    try:
        new_lp = replan(lp, gm, real)
    except ReplanInfeasible:
        new_lp = None
    assert (new_lp is None) == (ref is None)
    if new_lp is not None:
        assert new_lp.dfa == ref
        # the mission and the plan's clauses are never altered, and the real
        # environment executes every region word of the returned motion plan
        assert language_equal(project(new_lp.dfa, lp.mission.alphabet.events),
                              lp.mission) is None
        validate_integrated_clauses(new_lp.dfa, lp.labeling, lp.initial_region)
        assert new_lp.motion_plan == project(new_lp.dfa, lp.labeling.regions)
        real_runs = reference_run_language(motion_dfa(real, lp.initial_region), stutter=True,
                                           regions=lp.labeling.regions)
        assert language_subset(new_lp.motion_plan, real_runs) is None
    return new_lp


@settings(max_examples=150, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_replan_splice_matches_word_enumeration(rng):
    # the automaton-level splice builds the same plan as bridging every
    # enumerated plan word, also when it replans an already replanned plan
    lp, gm, env = _random_patrol(rng)
    real = _cut(rng, env)
    new_lp = _replan_and_reference(lp, gm, real)
    if new_lp is not None:
        _replan_and_reference(new_lp, gm, _cut(rng, real))


def test_replan_tracks_the_last_region_into_merged_states():
    # minimisation merges the plan's entry with the return to R0 after b,
    # so one state is entered both before any region and from R1; only the
    # entry from R1 lost its door and needs the detour through R2
    door_map = {(a, b): (f"d{a[1]}{b[1]}",) for a in ("R0", "R1", "R2")
                for b in ("R0", "R1", "R2") if a != b}
    env = Environment(("R0", "R1", "R2"), tuple(door_map),
                      tuple(d for ds in door_map.values() for d in ds), door_map, {"bot": "R0"})
    alpha = EventAlphabet(("a", "b"), frozenset({"a", "b"}))
    mission = cycle_dfa(("a", "b"), alpha)
    pi = LabelingMap(("R0", "R1", "R2"), {"a": frozenset({"R0"}), "b": frozenset({"R1"})})
    gm = motion_dfa(env, "R0")
    lp = integrate(mission, pi, "R0", gm)
    merged = replace(lp, dfa=minimize(lp.dfa))
    assert len(merged.dfa.states) < len(lp.dfa.states)
    real = env.without_doors({"d10"})
    new_lp = replan(merged, gm, real)
    assert accepts(new_lp.dfa, ("R0", "a", "R1", "b", "R2", "R0", "a", "R1"))
    assert not accepts(new_lp.dfa, ("R0", "a", "R1", "b", "R0"))
    real_runs = reference_run_language(motion_dfa(real, "R0"), stutter=True)
    assert language_subset(new_lp.motion_plan, real_runs) is None


def test_replan_scales_past_word_enumeration():
    # a 16-room ring with two choices per room has 2^16 plan words
    n = 16
    rooms = tuple(f"R{j}" for j in range(n))
    door_map = {}
    for j in range(n):
        a, b = rooms[j], rooms[(j + 1) % n]
        door_map[(a, b)] = door_map[(b, a)] = (f"d{j}",)
    env = Environment(rooms, tuple(door_map), tuple(f"d{j}" for j in range(n)), door_map,
                      {"bot": "R0"})
    events = [f"{c}{j}" for j in range(n) for c in "xy"] + ["r"]
    transitions = {(str(j), f"{c}{j}"): str(j + 1) for j in range(n) for c in "xy"}
    transitions[(str(n), "r")] = "0"
    states = tuple(str(j) for j in range(n + 1))
    mission = Dfa(states, EventAlphabet(tuple(events), frozenset(events)), "0", transitions,
                  frozenset(states))
    labels = {f"{c}{j}": frozenset({rooms[j]}) for j in range(n) for c in "xy"}
    pi = LabelingMap(rooms, {**labels, "r": frozenset({"R0"})})
    gm = motion_dfa(env, "R0")
    lp = integrate(mission, pi, "R0", gm)
    real = env.without_doors({"d1"})  # R1 and R2 lose their only door
    new_lp = replan(lp, gm, real)
    assert language_equal(
        minimize(project(new_lp.dfa, mission.alphabet.events)), minimize(mission)
    ) is None
    real_runs = reference_run_language(motion_dfa(real, "R0"), stutter=True)
    assert language_subset(new_lp.motion_plan, real_runs) is None
    detour = ("R0", "x0", "R1", "x1") + ("R0",) + rooms[:1:-1] + ("x2",)
    assert accepts(new_lp.dfa, detour)


def test_replan_checks_adequacy_under_optimized_python():
    # the adequacy check is an explicit raise, so ``python -O`` keeps it
    script = textwrap.dedent("""
        from cosynth.automata import Dfa, EventAlphabet
        from cosynth.motion import (Environment, LabelingMap, integrate, motion_dfa,
                                    replan)

        if __debug__:
            raise SystemExit("not optimized")
        door_map = {("A", "B"): ("d_ab",), ("A", "C"): ("d_ac",), ("C", "B"): ("d_cb",),
                    ("B", "A"): ("d_ba",)}
        env = Environment(("A", "B", "C"), tuple(door_map), ("d_ab", "d_ac", "d_cb", "d_ba"),
                          door_map, {"bot": "A"})
        alpha = EventAlphabet(("go", "back"), frozenset({"go", "back"}))
        mission = Dfa(("0", "1"), alpha, "0", {("0", "go"): "1", ("1", "back"): "0"},
                      frozenset({"0", "1"}))
        pi = LabelingMap(("A", "B", "C"), {"go": frozenset({"B"}), "back": frozenset({"A"})})
        gm = motion_dfa(env, "A")
        lp = integrate(mission, pi, "A", gm)
        # the plan's direct move A -> B is not in a nominal model without d_ab
        detour = env.without_doors({"d_ab"})
        replan(lp, motion_dfa(detour, "A"), detour)
    """)
    src = Path(cosynth.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert "cosynth.automata.InvariantError: plan was not adequate for its nominal motion model" in done.stderr


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


def test_simulate_moves_in_alphabet_order_whatever_the_transition_order():
    # from A the plan may enter B or C; with its transitions stored backwards
    # the walker still takes the region that comes first in the alphabet
    pairs = [(a, b) for a in "ABC" for b in "ABC" if a != b]
    door_map = {(a, b): (f"d_{a}{b}",) for a, b in pairs}
    env = Environment(("A", "B", "C"), tuple(pairs), tuple(d for (d,) in door_map.values()),
                      door_map, {"bot": "A"})
    alpha = EventAlphabet(("go",), frozenset({"go"}))
    mission = Dfa(("0",), alpha, "0", {("0", "go"): "0"}, frozenset({"0"}))
    pi = LabelingMap(("A", "B", "C"), {"go": frozenset({"B", "C"})})
    lp = integrate(mission, pi, "A", motion_dfa(env, "A"), agent="bot")
    backwards = dict(reversed(list(lp.dfa.transitions.items())))
    reordered = replace(lp, dfa=replace(lp.dfa, transitions=backwards))
    trace = simulate([lp], env, max_steps=6).trace
    assert trace[:2] == ["0 bot A region", "1 bot B region"]
    assert simulate([reordered], env, max_steps=6).trace == trace


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
    lp1 = integrate(m1, pi, "A", gm, agent="one")
    lp2 = integrate(m2, pi2, "A", gm, agent="two")
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
