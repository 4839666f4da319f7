"""Environment model, motion plans, integration, door profiles, replanning,
and the discrete-event simulator."""

import random
import re
import textwrap
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    InputError,
    accepts,
    dfa_to_text,
    language_equal,
    language_subset,
    minimize,
    run,
)
from cosynth.langops import project
from cosynth.motion import (
    Environment,
    IntegratedPlan,
    LabelingMap,
    MotionInfeasible,
    ReplanInfeasible,
    _interleave,
    _motion_gap,
    _splice,
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
from cosynth.pipeline import PipelineConfig, run_pipeline
from conftest import (
    REGIONS,
    brute_accepts,
    brute_project,
    chain_dfa,
    cycle_dfa,
    generated_up_to,
    lang_set,
    perfbench_generate,
    random_dfa,
    reference_door_profile,
    reference_integrate,
    reference_interleave,
    reference_motion_dfa,
    reference_motion_gap,
    reference_replan,
    reference_replan_dfa,
    reference_run_language,
    reference_simulate,
    reference_splice,
    shortest_real_path,
    trim,
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


def test_environment_rejects_ambiguous_doors(tmp_path):
    # a door that leads from one region to two is refused when the
    # environment is built, so no motion model ever meets it
    with pytest.raises(InputError, match="door 'D' leads from 'R1' to both 'R2' and 'R3'"):
        Environment(
            ("R1", "R2", "R3"),
            (("R1", "R2"), ("R1", "R3")),
            ("D",),
            {("R1", "R2"): ("D",), ("R1", "R3"): ("D",)},
            {},
        )
    # in an .env file the error names the file when it is parsed
    path = tmp_path / "ambiguous.env"
    path.write_text(textwrap.dedent("""\
        regions: R1 R2 R3
        doors: D
        adjacency:
        R1 R2
        R1 R3
        doormap:
        R1 R2 D
        R1 R3 D
    """), encoding="utf-8")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: door 'D' leads from 'R1' to both"):
        environment_from_text(path.read_text(encoding="utf-8"), source=str(path))
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: duplicate events"):
        environment_from_text("regions: R1\ndoors: D D\n", source=str(path))


def test_lift_single_region_mission():
    alpha = EventAlphabet(("a", "b"))
    mission = cycle_dfa(("a", "b"), alpha)
    pi = LabelingMap(REGIONS, {"a": frozenset({"R1"}), "b": frozenset({"R1"})})
    lifted = integrate(mission, pi, "R1", case_env()).motion_plan
    assert lang_set(lifted, 3) == {(), ("R1",), ("R1", "R1"), ("R1", "R1", "R1")}


def test_lift_case_study_agent2():
    mission, pi = fire_mission()
    lifted = integrate(mission, pi, "R1", case_env()).motion_plan
    expected = minimize(cycle_dfa(("R1", "R2", "R1"), EventAlphabet(REGIONS)))
    assert language_equal(lifted, expected) is None


def test_lift_requires_labels_for_every_event():
    alpha = EventAlphabet(("a", "b"))
    mission = cycle_dfa(("a", "b"), alpha)
    pi = LabelingMap(REGIONS, {"a": frozenset({"R1"})})
    with pytest.raises(InputError):
        integrate(mission, pi, "R1", case_env())


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
    plan = integrate(mission, pi, "R1", case_env()).motion_plan
    expected = minimize(cycle_dfa(("R1", "R2", "R1"), EventAlphabet(REGIONS)))
    assert language_equal(plan, expected) is None


def test_synthesize_motion_plan_stay_home():
    alpha = EventAlphabet(("a",))
    mission = cycle_dfa(("a",), alpha)
    pi = LabelingMap(REGIONS, {"a": frozenset({"R1"})})
    plan = integrate(mission, pi, "R1", case_env()).motion_plan
    assert language_equal(plan, Dfa(("0",), EventAlphabet(REGIONS), "0",
                                    {("0", "R1"): "0"}, frozenset({"0"}))) is None


def test_synthesize_motion_plan_infeasible_names_pair():
    alpha = EventAlphabet(("a", "b"))
    mission = cycle_dfa(("a", "b"), alpha)
    pi = LabelingMap(REGIONS, {"a": frozenset({"R2"}), "b": frozenset({"R3"})})
    with pytest.raises(MotionInfeasible) as err:
        integrate(mission, pi, "R1", case_env())
    assert err.value.pair == ("R2", "R3")


def test_door_profile_stay_home_is_epsilon():
    plan = Dfa(("0",), EventAlphabet(REGIONS), "0", {("0", "R1"): "0"}, frozenset({"0"}))
    profile = door_profile(plan, case_env(), "R1")
    assert lang_set(profile, 2) == {()}


def test_door_profile_r1r2_leg():
    plan = minimize(cycle_dfa(("R1", "R2", "R1"), EventAlphabet(REGIONS)))
    profile = door_profile(plan, case_env(), "R1")
    assert accepts(profile, ("D1r",)) and accepts(profile, ("D2",))
    assert accepts(profile, ("D2", "D1r")) and accepts(profile, ("D1r", "D1r"))
    assert not accepts(profile, ("D1r", "D2"))
    assert not accepts(profile, ("D3",))


def test_door_profile_r1r3_cycle_product():
    plan = minimize(cycle_dfa(("R1", "R3", "R1"), EventAlphabet(REGIONS)))
    profile = door_profile(plan, case_env(), "R1")
    for first in ("D1l", "D3"):
        for second in ("D1l", "D3"):
            assert accepts(profile, (first, second))
    assert not accepts(profile, ("D2",))


def test_door_profile_soundness_enumeration():
    # every profile word, run on the motion model, traces a plan word
    mission, pi = fire_mission()
    gm = motion_dfa(case_env(), "R1")
    plan = integrate(mission, pi, "R1", case_env()).motion_plan
    profile = door_profile(plan, case_env(), "R1")
    for w in words_up_to(gm.alphabet.events, 8):
        if not brute_accepts(profile, w):
            continue
        state = gm.initial
        trace = (state,)
        for d in w:
            state = gm.transitions[(state, d)]
            trace += (state,)
        assert brute_accepts(plan, trace if w else (gm.initial,)) or not w


def random_environment(rng) -> Environment:
    """Regions R0..Rk and one region U with doors out of it but none into it,
    so no other start reaches U; each door leads from a region to at most one
    region, and the door and door-map orders are shuffled."""
    regions = [f"R{i}" for i in range(rng.randint(1, 4))] + ["U"]
    rng.shuffle(regions)
    doors = [f"d{i}" for i in range(rng.randint(1, 5))]
    rng.shuffle(doors)
    leads: dict[tuple[str, str], list[str]] = {}
    for v in regions:
        for d in doors:
            if rng.random() < 0.4:
                v2 = rng.choice([r for r in regions if r != "U"])
                leads.setdefault((v, v2), []).append(d)
    pairs = list(leads)
    rng.shuffle(pairs)
    door_map = {pair: tuple(leads[pair]) for pair in pairs}
    # an adjacency whose doors are all missing
    v, v2 = rng.choice(regions), rng.choice(regions)
    door_map.setdefault((v, v2), ())
    return Environment(tuple(regions), tuple(door_map), tuple(doors), door_map)


@settings(max_examples=300, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_motion_dfa_matches_the_trim_route(rng):
    # the breadth-first walk over the environment's door moves gives the trim
    # automaton byte for byte, with its states in the same order
    env = random_environment(rng)
    start = rng.choice(env.regions)
    got = motion_dfa(env, start)
    expected = reference_motion_dfa(env, start)
    assert dfa_to_text(got) == dfa_to_text(expected)
    assert got.states == expected.states
    assert got.alphabet == expected.alphabet
    assert start == "U" or "U" not in got.states


@settings(max_examples=300, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_door_profile_matches_the_named_walk(rng):
    # all-marked motion plans, as integration and replanning make them, and
    # plans with unmarked states, over a region order unlike the environment's
    env = random_environment(rng)
    start = rng.choice(env.regions)
    order = rng.sample(env.regions, len(env.regions))
    plan = random_dfa(rng, 5, order, density=rng.choice((0.4, 0.8)),
                      marked_p=rng.choice((1.0, 1.0, 0.6)))
    assert dfa_to_text(door_profile(plan, env, start)) == dfa_to_text(
        reference_door_profile(plan, motion_dfa(env, start)))


def test_integrate_case_study_agent2():
    mission, pi = fire_mission()
    lp = integrate(mission, pi, "R1", case_env(), agent="a2")
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
    lp = integrate(mission, pi, "R1", case_env())
    assert lang_set(lp.dfa, 2) == {(), ("R1",)}


@settings(max_examples=300, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_interleave_matches_the_trim_route(rng):
    # random missions and labelings; each mission has a move back to its
    # initial state, often placeable in the initial region, so the plan often
    # closes a mission cycle through its entry state
    events = ("a", "b", "c")[:rng.randint(1, 3)]
    shape = random_dfa(rng, 5, events, density=rng.choice((0.3, 0.7)),
                       marked_p=rng.choice((1.0, 0.6)))
    transitions = dict(shape.transitions)
    back = rng.choice(events)
    transitions[(rng.choice(shape.states), back)] = shape.initial
    controllable = frozenset(rng.sample(events, rng.randint(0, len(events))))
    mission = Dfa(shape.states, EventAlphabet(events, controllable), shape.initial,
                  transitions, shape.marked)
    regions = REGIONS[:rng.randint(1, len(REGIONS))]
    start = rng.choice(regions)
    mapping = {e: set(rng.sample(regions, rng.randint(1, len(regions)))) for e in events}
    if rng.random() < 0.5:
        mapping[back].add(start)
    pi = LabelingMap(regions, mapping)
    got = _interleave(mission, pi, start)
    expected = reference_interleave(mission, pi, start)
    assert got == expected
    assert got.states == expected.states


def test_interleave_rejects_clashing_state_names():
    # the nodes (a@R, S) and (a, R@S) are both named a@R@S; the string route
    # merged them into one state, whose plan runs S x S x although x x is not
    # a mission word
    alpha = EventAlphabet(("x", "y"))
    mission = Dfa(("a", "a@R"), alpha, "a", {("a", "x"): "a@R", ("a", "y"): "a"},
                  frozenset(("a", "a@R")))
    pi = LabelingMap(("S", "R@S"), {"x": frozenset({"S"}), "y": frozenset({"R@S"})})
    assert accepts(reference_interleave(mission, pi, "S"), ("S", "x", "S", "x"))
    assert not accepts(mission, ("x", "x"))
    with pytest.raises(InputError, match="duplicate state ids"):
        _interleave(mission, pi, "S")


def test_integrate_interleaves_once(monkeypatch):
    import cosynth.motion as motion

    calls = []
    original = motion._interleave
    monkeypatch.setattr(motion, "_interleave", lambda *args: calls.append(args) or original(*args))
    mission, pi = fire_mission()
    integrate(mission, pi, "R1", case_env())
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
        lp = integrate(mission, pi, v0, env)
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
    start = rng.choice(REGIONS)
    gm = motion_dfa(env, start)
    plan = random_dfa(rng, 5, rng.sample(REGIONS, len(REGIONS)),
                      density=rng.choice((0.3, 0.6, 0.9)), marked_p=1.0)
    w = language_subset(plan, reference_run_language(gm, stutter=True, regions=REGIONS))
    expected = None if w is None else (start, w[0]) if len(w) == 1 else w[-2:]
    assert _motion_gap(plan, env, start) == expected


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
    return integrate(mission, pi, "R1", case_env(), agent="a3"), motion_dfa(case_env(), "R1")


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


def test_replan_of_a_served_plan_builds_no_checked_alphabet(monkeypatch):
    # the real environment built and checked its door alphabet once; a replan
    # that keeps the plan reads it and checks no event again
    lp, gm = _agent3_plan()
    real = case_env().without_doors({"D3"})
    checked = []
    original = EventAlphabet.__post_init__
    monkeypatch.setattr(EventAlphabet, "__post_init__",
                        lambda self: checked.append(self.events) or original(self))
    new_lp = replan(lp, gm, real)
    assert new_lp.dfa is lp.dfa
    assert checked == []
    env = case_env()
    assert checked == [env.doors]  # the patch sees what an environment checks


def test_replan_accepts_regions_the_start_cannot_reach():
    # R3 has a door out but none in, so the motion model from R1 trims it
    door_map = {("R1", "R2"): ("d12",), ("R2", "R1"): ("d21",), ("R3", "R1"): ("d31",)}
    env = Environment(REGIONS, tuple(door_map), ("d12", "d21", "d31"), door_map, {"bot": "R1"})
    alpha = EventAlphabet(("go", "back"), frozenset({"go", "back"}))
    pi = LabelingMap(REGIONS, {"go": frozenset({"R2"}), "back": frozenset({"R1"})})
    gm = motion_dfa(env, "R1")
    assert set(gm.states) == {"R1", "R2"}
    lp = integrate(cycle_dfa(("go", "back"), alpha), pi, "R1", env, agent="bot")
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
    lp = integrate(mission, pi, "A", env, agent="bot")
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


def test_replan_bridges_break_ties_by_region_name():
    # A reaches D through B or through C once the direct door is gone; the
    # door map lists C first, and the bridge still takes B, the lesser name
    door_map = {("A", "D"): ("d_ad",), ("A", "C"): ("d_ac",), ("A", "B"): ("d_ab",),
                ("C", "D"): ("d_cd",), ("B", "D"): ("d_bd",), ("D", "A"): ("d_da",)}
    env = Environment(("A", "B", "C", "D"), tuple(door_map), tuple(sorted(
        d for ds in door_map.values() for d in ds)), door_map, {"bot": "A"})
    alpha = EventAlphabet(("go", "back"), frozenset({"go", "back"}))
    pi = LabelingMap(env.regions, {"go": frozenset({"D"}), "back": frozenset({"A"})})
    gm = motion_dfa(env, "A")
    lp = integrate(cycle_dfa(("go", "back"), alpha), pi, "A", env, agent="bot")
    new_lp = replan(lp, gm, env.without_doors({"d_ad"}))
    assert accepts(new_lp.dfa, ("A", "B", "D", "go"))
    assert not accepts(new_lp.dfa, ("A", "C", "D", "go"))


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
            return integrate(mission, pi, "R0", env, agent="bot"), gm, env
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


def _real_variant(rng, env: Environment) -> Environment:
    """A real environment for replanning: a :func:`_cut`, random door losses,
    the start's doors all gone, or one region no door leads into any more."""
    case = rng.choice(("cut", "cut", "lose", "start", "unreached"))
    if case == "cut":
        return _cut(rng, env)
    if case == "lose":
        p = rng.choice((0.0, 0.2, 0.5))
        return env.without_doors({d for d in env.doors if rng.random() < p})
    if case == "start":
        return env.without_doors({d for (v, v2), ds in env.door_map.items() if "R0" in (v, v2)
                                  for d in ds})
    unreached = rng.choice(env.regions[1:])
    return replace(env, door_map={(v, v2): () if v2 == unreached else ds
                                  for (v, v2), ds in env.door_map.items()})


def _outcome(route, *args):
    try:
        return route(*args)
    except (InputError, ReplanInfeasible) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, database=None)
@example(rng=random.Random(68))  # a moved start, whose first move to R0 is bridged
@given(rng=st.randoms(use_true_random=False))
def test_replan_matches_the_motion_automaton_route(rng):
    # walking the real door map and door moves gives what the real motion
    # automaton gives: the same plans, the same kept plans and the same errors
    lp, gm, env = _random_patrol(rng)
    real = _real_variant(rng, env)
    nominal = gm
    case = rng.choice(("real", "real", "real", "narrow nominal", "wider real", "moved start"))
    if case == "narrow nominal":  # a plan that may be inadequate for its nominal model
        nominal = motion_dfa(_real_variant(rng, env), "R0")
    elif case == "wider real":
        real = replace(real, regions=real.regions + ("R9",))
    elif case == "moved start":
        lp = replace(lp, initial_region=rng.choice(("R1", "R9")))
    got = _outcome(replan, lp, nominal, real)
    expected = _outcome(reference_replan, lp, nominal, real)
    if case == "narrow nominal":  # replanning reads only the real door map
        assert got == _outcome(replan, lp, gm, real)
    if case == "moved start" and not real.doors_between("R1", "R0"):
        _check_bridged_first_move(got, expected, real)
        return
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    for part in ("dfa", "motion_plan", "profile"):
        assert dfa_to_text(getattr(got, part)) == dfa_to_text(getattr(expected, part)), part
    assert (got.dfa is lp.dfa) == (expected.dfa is lp.dfa)
    assert (got.motion_plan is lp.motion_plan) == (expected.motion_plan is lp.motion_plan)


def _after(dfa: Dfa, word) -> Dfa:
    """The minimal automaton of what *dfa* accepts after *word*."""
    return minimize(replace(dfa, initial=run(dfa, word)))


def _check_bridged_first_move(got, expected, real: Environment) -> None:
    """Replanning from R1 a plan that first moves to R0, through no door.

    The splice walks from the initial region R1, so it bridges that first
    move as it bridges every later one; the reference walks from no region
    and keeps it.  Past the bridge both walks meet the same nodes in the
    same order, so they raise the same later ReplanInfeasible, and the
    replanned plan and motion plan are the bridge, every hop marked,
    followed by what the reference's accept after R0.  Neither motion plan
    starts in R1, so both door profiles are empty.
    """
    path = shortest_real_path(real, "R1", "R0")
    if isinstance(expected, tuple) and expected[0] is InputError:
        assert got == expected
    elif path is None:
        assert got == (ReplanInfeasible, str(ReplanInfeasible(("R1", "R0"))))
    elif isinstance(expected, tuple):  # a later region change has no real path
        assert got == expected
    else:
        assert not isinstance(got, tuple), got
        bridge = path[1:]
        for part in ("dfa", "motion_plan"):
            plan, reference = getattr(got, part), getattr(expected, part)
            assert (plan.initial in plan.marked) == (reference.initial in reference.marked)
            for k, hop in enumerate(bridge):
                state = run(plan, bridge[:k])
                assert [e for q, e in plan.transitions if q == state] == [hop], part
                assert k == 0 or state in plan.marked, part
            assert dfa_to_text(_after(plan, bridge)) == dfa_to_text(_after(reference, ["R0"]))
        assert dfa_to_text(got.profile) == dfa_to_text(expected.profile)


def _integrate_matches_the_motion_automaton_route(mission, pi, v0, env) -> None:
    """Integration on the environment's door map and door moves gives what
    the agent's motion automaton gives: the same gap or input error, or byte
    for byte the same plan, motion plan and profile."""
    got, expected = (_integration_outcome(route, mission, pi, v0, env)
                     for route in (integrate, reference_integrate))
    if isinstance(expected, (tuple, str)):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    for part in ("dfa", "motion_plan", "profile"):
        assert dfa_to_text(getattr(got, part)) == dfa_to_text(getattr(expected, part)), part


def _integration_outcome(route, *args):
    try:
        return route(*args, agent="bot")
    except MotionInfeasible as exc:
        return exc.pair
    except InputError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_integrate_gap_and_profile_match_the_motion_automaton_route(rng):
    lp, _, env = _random_patrol(rng)
    _integrate_matches_the_motion_automaton_route(lp.mission, lp.labeling, "R0",
                                                  _real_variant(rng, env))


@settings(max_examples=300, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_integrate_on_random_environments_matches_the_motion_automaton_route(rng):
    # random door maps with an unreachable region and a pair without doors,
    # often with doors closed, which keeps emptied pairs as () in the door
    # map; random missions with some unmarked states and random labelings,
    # and now and then a start the environment lacks
    env = random_environment(rng)
    if rng.random() < 0.5:
        env = env.without_doors({d for d in env.doors if rng.random() < 0.4})
    events = ("a", "b", "c")[:rng.randint(1, 3)]
    mission = random_dfa(rng, 4, events, density=rng.choice((0.4, 0.8)),
                         marked_p=rng.choice((1.0, 0.6)))
    pi = LabelingMap(env.regions, {
        e: frozenset(rng.sample(env.regions, rng.randint(1, 2))) for e in events})
    start = rng.choice(env.regions) if rng.random() < 0.9 else "R9"
    _integrate_matches_the_motion_automaton_route(mission, pi, start, env)


def _unmark_some(rng, plan: Dfa) -> Dfa:
    """*plan* with a random share of its states, perhaps none or all, unmarked."""
    p = rng.choice((0.0, 0.0, 0.2, 0.5, 1.0))
    return Dfa(plan.states, plan.alphabet, plan.initial, plan.transitions,
               frozenset(q for q in plan.states if rng.random() >= p))


@settings(max_examples=200, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_splice_matches_the_hand_numbered_reference(rng):
    # keying the NFA by walk nodes and integer hops splices the same plan,
    # and raises the same ReplanInfeasible, as naming every node "p{n}";
    # integrated plans mark every state, so some plans here unmark a share of
    # them and a subset that holds neither a hop nor a marked node is unmarked
    lp, _, env = _random_patrol(rng)
    regions = set(lp.labeling.regions)
    lp = replace(lp, dfa=_unmark_some(rng, lp.dfa))
    for _ in range(2):  # the second round splices an already spliced plan
        real = _real_variant(rng, env)
        got = _outcome(_splice, lp.dfa, regions, real, "R0")
        expected = _outcome(reference_splice, lp.dfa, regions, real)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert dfa_to_text(got) == dfa_to_text(expected)
        lp = replace(lp, dfa=got)


@settings(max_examples=200, deadline=None, database=None)
@example(rng=random.Random(54))  # a bridge whose first hop a region edge of the same node also takes
@given(rng=st.randoms(use_true_random=False))
def test_splice_routes_agree(rng):
    # from the initial region, the splice gives the plan that the reference
    # gives walking from no region, and splicing the motion plan gives the
    # region projection of the spliced plan; on trim plans, as replanning's
    # are, where every walked edge lies on an accepted word.  When the plan's
    # splice finds no bridge, the motion plan's finds none either, though the
    # two walks may meet the unbridgeable region changes in another order
    lp, _, env = _random_patrol(rng)
    regions = set(lp.labeling.regions)
    plan = trim(_unmark_some(rng, lp.dfa))
    real = _real_variant(rng, env)
    got = _outcome(_splice, plan, regions, real, "R0")
    expected = _outcome(reference_splice, plan, regions, real)
    motion = _outcome(_splice, project(plan, lp.labeling.regions), regions, real, "R0")
    if isinstance(expected, tuple):
        assert got == expected
        assert isinstance(motion, tuple) and motion[0] is ReplanInfeasible, motion
        return
    assert dfa_to_text(got) == dfa_to_text(expected)
    assert dfa_to_text(motion) == dfa_to_text(project(got, lp.labeling.regions))


def test_splice_merges_a_bridge_with_a_region_edge_of_the_same_node():
    # at A the plan moves to B for go and to C for peek; once A-B loses its
    # door, the bridge's first hop is C, which the node already moves to
    door_map = {("A", "B"): ("d_ab",), ("A", "C"): ("d_ac",), ("C", "B"): ("d_cb",),
                ("C", "A"): ("d_ca",), ("B", "A"): ("d_ba",)}
    env = Environment(("A", "B", "C"), tuple(door_map), tuple(sorted(
        d for ds in door_map.values() for d in ds)), door_map, {"bot": "A"})
    alpha = EventAlphabet(("go", "back", "peek"), frozenset({"go", "back", "peek"}))
    mission = Dfa(("0", "1"), alpha, "0", {("0", "go"): "1", ("1", "back"): "0",
                                           ("0", "peek"): "0"}, frozenset({"0", "1"}))
    pi = LabelingMap(env.regions, {"go": frozenset({"B"}), "back": frozenset({"A"}),
                                   "peek": frozenset({"C"})})
    lp = integrate(mission, pi, "A", env, agent="bot")
    regions = set(env.regions)
    real = env.without_doors({"d_ab"})
    got = _splice(lp.dfa, regions, real, "A")
    assert dfa_to_text(got) == dfa_to_text(reference_splice(lp.dfa, regions, real))
    assert dfa_to_text(_splice(lp.motion_plan, regions, real, "A")) == \
        dfa_to_text(project(got, env.regions))
    assert accepts(got, ("A", "C", "B", "go")) and accepts(got, ("A", "C", "peek"))
    assert not accepts(got, ("A", "B"))
    # with every door into B gone, both name the same gap
    closed = real.without_doors({"d_cb"})
    for splice in (lambda: _splice(lp.dfa, regions, closed, "A"),
                   lambda: reference_splice(lp.dfa, regions, closed)):
        with pytest.raises(ReplanInfeasible) as err:
            splice()
        assert err.value.pair == ("A", "B")


def _fields(env: Environment) -> dict:
    """Every attribute of *env*, each dict as its item list, so order counts."""
    return {k: list(v.items()) if isinstance(v, dict) else v for k, v in vars(env).items()}


def _checked(env: Environment, door_map) -> Environment:
    return Environment(env.regions, env.adjacency, env.doors, door_map, env.initial_regions)


@settings(max_examples=200, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_without_doors_equals_the_checked_environment(rng):
    # closing doors gives every field, door moves and door alphabet included,
    # that a full Environment(...) of the filtered door map builds, and
    # leaves the environment it started from as it was
    env = replace(random_environment(rng), initial_regions={"bot": "U"})
    for _ in range(2):
        closed = {d for d in env.doors if rng.random() < 0.4} | {"nowhere"}
        got = env.without_doors(closed)
        door_map = {pair: tuple(d for d in ds if d not in closed)
                    for pair, ds in env.door_map.items()}
        assert _fields(got) == _fields(_checked(env, door_map))
        assert _fields(env) == _fields(_checked(env, env.door_map))
        env = got


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
    lp = integrate(mission, pi, "R0", env)
    merged = replace(lp, dfa=minimize(lp.dfa))
    assert len(merged.dfa.states) < len(lp.dfa.states)
    real = env.without_doors({"d10"})
    new_lp = replan(merged, gm, real)
    assert accepts(new_lp.dfa, ("R0", "a", "R1", "b", "R2", "R0", "a", "R1"))
    assert not accepts(new_lp.dfa, ("R0", "a", "R1", "b", "R0"))
    real_runs = reference_run_language(motion_dfa(real, "R0"), stutter=True)
    assert language_subset(new_lp.motion_plan, real_runs) is None


def test_replan_bridges_the_first_region_change_from_the_initial_region():
    # the plan R2 m R0, repeated, starts in R0 with no door from R0 to R2 left;
    # the agent stands in R0 before its first move, so that move is bridged
    # through R1 as the same change is on every later cycle
    door_map = {("R0", "R1"): ("d01",), ("R1", "R2"): ("d12",), ("R2", "R0"): ("d20",),
                ("R0", "R2"): ("d02",)}
    env = Environment(("R0", "R1", "R2"), tuple(door_map), ("d01", "d02", "d12", "d20"),
                      door_map, {"bot": "R0"})
    alpha = EventAlphabet(("R0", "R1", "R2", "m"), frozenset({"R0", "R1", "R2", "m"}))
    plan = cycle_dfa(("R2", "m", "R0"), alpha)
    pi = LabelingMap(env.regions, {"m": frozenset({"R2"})})
    mission = project(plan, ("m",))
    lp = IntegratedPlan("bot", plan, mission, project(plan, env.regions),
                        door_profile(project(plan, env.regions), env, "R0"), "R0", pi)
    new_lp = replan(lp, motion_dfa(env, "R0"), env.without_doors({"d02"}))
    assert dfa_to_text(new_lp.dfa) == dfa_to_text(minimize(cycle_dfa(("R1", "R2", "m", "R0"),
                                                                       alpha)))
    assert dfa_to_text(new_lp.motion_plan) == dfa_to_text(
        minimize(cycle_dfa(("R1", "R2", "R0"), new_lp.motion_plan.alphabet)))


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
    lp = integrate(mission, pi, "R0", env)
    real = env.without_doors({"d1"})  # R1 and R2 lose their only door
    new_lp = replan(lp, gm, real)
    assert language_equal(
        minimize(project(new_lp.dfa, mission.alphabet.events)), minimize(mission)
    ) is None
    real_runs = reference_run_language(motion_dfa(real, "R0"), stutter=True)
    assert language_subset(new_lp.motion_plan, real_runs) is None
    detour = ("R0", "x0", "R1", "x1") + ("R0",) + rooms[:1:-1] + ("x2",)
    assert accepts(new_lp.dfa, detour)


def test_simulate_empty_plan_set():
    result = simulate([], case_env())
    assert result.trace == [] and result.completed


def test_simulate_rejects_a_plan_whose_start_the_environment_lacks():
    # no walker replans here, and the plan is still refused before the first step
    lp, _ = _agent3_plan()
    with pytest.raises(InputError, match="initial region 'R9' not in the environment"):
        simulate([replace(lp, initial_region="R9")], case_env())


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
    lp = integrate(mission, pi, "A", env, agent="bot")
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
    lp1 = integrate(m1, pi, "A", env, agent="one")
    lp2 = integrate(m2, pi2, "A", env, agent="two")
    result = simulate([lp1, lp2], env, max_steps=20)
    assert not result.completed and result.deadlock is not None


def _team(rng):
    """Plans of two or three agents, whose missions share events, on a ring
    or corridor of 3-4 rooms, with the environment, a random door schedule
    and a stop event (or None)."""
    n = rng.randint(3, 4)
    rooms = tuple(f"R{j}" for j in range(n))
    links = [(j, j + 1) for j in range(n - 1)] + ([(n - 1, 0)] if rng.random() < 0.6 else [])
    door_map: dict[tuple[str, str], tuple[str, ...]] = {}
    for j, k in links:
        doors = tuple(f"d{j}{x}" for x in "ab"[: rng.randint(1, 2)])
        door_map[(rooms[j], rooms[k])] = door_map[(rooms[k], rooms[j])] = doors
    doors = tuple(sorted({d for ds in door_map.values() for d in ds}))
    env = Environment(rooms, tuple(door_map), doors, door_map)
    labels = {e: frozenset(rng.sample(rooms, rng.randint(1, 2))) for e in "pqrs"}
    plans = []
    for i in range(rng.randint(2, 3)):
        events = rng.sample("pqrs", rng.randint(1, 3))
        mission = random_dfa(rng, 3, events, density=0.7, marked_p=1.0)
        pi = LabelingMap(rooms, {e: labels[e] for e in events})
        start = rng.choice(rooms)
        try:
            plans.append(integrate(mission, pi, start, env, agent=f"a{i}"))
        except MotionInfeasible:
            continue
    schedule = [(rng.randint(0, 12), rng.choice(doors), rng.choice(("closed", "open")))
                for _ in range(rng.randint(0, 3))]
    stop = rng.choice([None, "p", "q"])
    return plans, env, schedule, stop


def _team_run(rng):
    """Both simulators on the plans of :func:`_team`, capped at 30 steps: each
    result, or the region pair of the ``ReplanInfeasible`` it raised."""
    plans, env, schedule, stop = _team(rng)
    results = []
    for sim in (simulate, reference_simulate):
        try:
            results.append(sim(plans, env, schedule, max_steps=30, stop_event=stop))
        except ReplanInfeasible as err:
            results.append(err.pair)
    return results


@settings(max_examples=200, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_simulate_matches_the_event_scan(rng):
    # picking the mission event from the walkers' own moves gives the trace of
    # scanning every event in sorted order, through replans and deadlocks
    result, reference = _team_run(rng)
    assert result == reference


@settings(max_examples=200, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_simulate_without_a_cap_ends_where_the_run_would_cycle(rng):
    # uncapped, a run that stops or deadlocks is the capped reference run; one
    # that does neither within the cap ends, not completed when it has a stop
    # event, after the schedule's last change, at a step from which the
    # reference repeats its last steps for the rest of the cap
    cap = 300
    plans, env, schedule, stop = _team(rng)
    try:
        reference = reference_simulate(plans, env, schedule, max_steps=cap, stop_event=stop)
    except ReplanInfeasible:
        return
    result = simulate(plans, env, schedule, stop_event=stop)
    if not plans or reference.deadlock is not None or (stop is not None and reference.completed):
        assert result == reference
        return
    assert result.trace == reference.trace[:len(result.trace)]
    assert (result.completed, result.deadlock) == (stop is None, None)
    lines: dict[int, list[str]] = {}  # each step's trace lines, without the step
    for line in reference.trace:
        step, rest = line.split(" ", 1)
        lines.setdefault(int(step), []).append(rest)
    end = int(result.trace[-1].split()[0]) + 1
    assert end > max((step for step, _, _ in schedule), default=0)
    assert any(all(lines[t] == lines[t + period] for t in range(end - period, cap - period))
               for period in range(1, end + 1))


def test_simulate_without_a_cap_ends_a_run_that_never_offers_the_stop_event():
    # the lone agent moves between A and B and fires go for ever, never r
    env = Environment(("A", "B"), (("A", "B"), ("B", "A")), ("d",),
                      {("A", "B"): ("d",), ("B", "A"): ("d",)}, {"bot": "A"})
    alpha = EventAlphabet(("go", "r"), frozenset({"go", "r"}))
    mission = Dfa(("0", "1"), alpha, "0", {("0", "go"): "1", ("1", "go"): "0"},
                  frozenset({"0", "1"}))
    pi = LabelingMap(("A", "B"), {"go": frozenset({"A", "B"}), "r": frozenset({"A"})})
    lp = integrate(mission, pi, "A", env, agent="bot")
    result = simulate([lp], env, stop_event="r")
    assert not result.completed and result.deadlock is None
    assert result.trace == simulate([lp], env, max_steps=len(result.trace), stop_event="r").trace
    assert simulate([lp], env).completed  # with no stop event the cycle is the run


def test_simulate_without_a_cap_completes_the_scaled_ring(tmp_path):
    # on a 40-room ring the patrols' detour takes them past 200 steps
    files = perfbench_generate().ring(tmp_path, 40, 2, 1, 1)
    report = run_pipeline(PipelineConfig.load(files.config), files.real_env, files.schedule)
    assert report.status == "holds"
    assert "  completed: yes" in report.lines
    last = report.trace.splitlines()[-1].split()
    assert int(last[0]) >= 200 and last[-2:] == ["r", "mission"]


def test_team_runs_replan_and_deadlock():
    # the generator of the property above reaches replans and deadlocks
    results = [_team_run(random.Random(seed))[1] for seed in range(60)]
    runs = [r for r in results if not isinstance(r, tuple)]
    assert any(r.deadlock for r in runs)
    assert any(line.endswith(" replan") for r in runs for line in r.trace)


@contextmanager
def _replans_checked():
    """Wrap ``replan`` where the pipeline and the simulator call it; each call
    must get a plan adequate for the nominal model it passes.  Yields the
    agents of the calls."""
    calls = []

    def checked(lp, nominal_motion, real_env):
        calls.append(lp.agent)
        assert reference_motion_gap(lp.motion_plan, nominal_motion) is None, lp.agent
        return replan(lp, nominal_motion, real_env)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("cosynth.motion.replan", checked)
        mp.setattr("cosynth.pipeline.replan", checked)
        yield calls


@pytest.mark.parametrize("workload", ("casestudy", "escorts", "ring"))
def test_the_pipeline_replans_only_plans_adequate_for_their_nominal_model(workload, tmp_path):
    # replan does not re-prove integrate's adequacy: the plans the pipeline
    # and its simulation hand it already have it
    files = perfbench_generate().build(workload, 1, tmp_path)
    with _replans_checked() as calls:
        report = run_pipeline(PipelineConfig.load(files.config), files.real_env, files.schedule)
    assert report.status == "holds"
    assert len(calls) >= len(report.plans)


@settings(max_examples=100, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_simulate_replans_only_plans_adequate_for_their_nominal_model(rng):
    # integrated plans, and plans spliced against doors of the environment,
    # are adequate for its motion model whenever a walker replans them
    plans, env, schedule, stop = _team(rng)
    with _replans_checked():
        try:
            simulate(plans, env, schedule, max_steps=30, stop_event=stop)
        except ReplanInfeasible:
            pass


def test_environment_round_trip():
    env = case_env()
    text = environment_to_text(env)
    back = environment_from_text(text)
    assert environment_to_text(back) == text
    # a repeated adjacency pair writes its doormap line once, which parses
    twice = replace(env, adjacency=env.adjacency + env.adjacency[:1])
    assert environment_from_text(environment_to_text(twice)) == twice


ENV_TEXT = "regions: R1 R2\ndoors: D\nadjacency:\nR1 R2\ndoormap:\nR1 R2 D\ninitial:\na R1\n"


@pytest.mark.parametrize("extra, line, message", [
    ("regions: R1 R2 R3", 9, "'regions' already given on line 1"),
    ("Doors: D E", 9, "'doors' already given on line 2"),
    ("initial:\na R2", 10, "initial region of agent 'a' already given on line 8"),
    ("doormap:\nR1 R2", 10, "doormap of 'R1' 'R2' already given on line 6"),
])
def test_environment_parser_names_a_repeated_line(extra, line, message):
    # each of these used to replace the earlier line silently
    assert environment_from_text(ENV_TEXT).initial_regions == {"a": "R1"}
    with pytest.raises(InputError, match=f"^env:{line}: {re.escape(message)}$"):
        environment_from_text(ENV_TEXT + extra + "\n", source="env")


def test_environment_parser_keeps_pairs_and_agents_apart():
    # a doormap pair, an initial agent and a section may share a name
    text = ("regions: initial regions\ndoors: D\nadjacency:\ninitial regions\n"
            "doormap:\ninitial regions D\ninitial:\ninitial initial\nregions regions\n")
    env = environment_from_text(text)
    assert env.initial_regions == {"initial": "initial", "regions": "regions"}
    assert env.door_map == {("initial", "regions"): ("D",)}


def test_labeling_parser_names_a_repeated_event():
    # an agent's event used to keep only its last line of regions
    text = "a go R1\nb go R2\n# comment\na stay R1\na go R2\n"
    with pytest.raises(InputError, match=(
            "^labels:5: regions of event 'go' of agent 'a' already given on line 1$")):
        labeling_from_text(text, REGIONS, source="labels")
    got = labeling_from_text(text.replace("a go R2\n", ""), REGIONS)
    assert {agent: pi.mapping for agent, pi in got.items()} == {
        "a": {"go": frozenset({"R1"}), "stay": frozenset({"R1"})},
        "b": {"go": frozenset({"R2"})},
    }


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
