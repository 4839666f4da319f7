"""Case-study anchors beyond the acceptance criteria: separability failure,
supC identities, assumption behaviour, analysis verdicts, fixture integrity."""

from cosynth import motion, synthesis, verification
from cosynth.automata import (
    EventAlphabet,
    accepts,
    dfa_to_text,
    language_equal,
    language_subset,
    load_dfa,
    minimize,
    parallel_compose,
    parallel_compose_all,
)
from cosynth.fixtures import expected_path, fixture_path
from cosynth.langops import project, satisfies, widen_like
from cosynth.pipeline import PipelineConfig, independence_transitive, run_pipeline
from cosynth.synthesis import synthesize_supervisor
from cosynth.verification import analyze_counterexample, weakest_assumption
from conftest import (
    AGENT1_EVENTS,
    AGENT3_EVENTS,
    FIRE2,
    GO1,
    GO3,
    STAY1,
    STAY3,
    agent_alphabets,
    branching_mission,
    chain_dfa,
    cv_membership,
    cycle_dfa,
    inverse_project_intersect,
    is_controllable,
    is_separable,
    prefix_closure,
    star_words,
    union_lang,
)


def test_mission_fails_separability(casestudy):
    mission = casestudy["mission"]
    blocks = [a.events for a in casestudy["alphabets"]]
    ce = is_separable(mission, blocks)
    assert ce is not None
    # the witness lies on the product side: locally fine, globally forbidden
    for a in casestudy["alphabets"]:
        local = tuple(s for s in ce if s in a.events)
        spec = widen_like(minimize(project(mission, a.events)), a)
        assert accepts(spec, local)
    assert not accepts(mission, ce)


def test_independence_relation_not_transitive(casestudy):
    assert not independence_transitive(casestudy["alphabets"])


def test_initial_supervisors_equal_their_missions(casestudy):
    # supC_i(L_i) = L_i for every agent of the case study
    for spec in casestudy["specs"]:
        supervisor = synthesize_supervisor(spec, spec)
        assert language_equal(supervisor, spec) is None


def test_pipeline_builds_every_language_without_learning(monkeypatch):
    # supervisors and motion plans come from direct constructions, and the
    # product check decides every pass without the assume-guarantee rule
    def refuse(*args, **kwargs):
        raise AssertionError("L* or the assume-guarantee rule ran on the default pipeline path")

    for module in (synthesis, verification, motion):
        monkeypatch.setattr(module, "learn", refuse, raising=False)
    for name in ("weakest_assumption", "sym_n_check"):
        monkeypatch.setattr(verification, name, refuse)
    config = PipelineConfig.load(fixture_path("casestudy.cfg"))
    report = run_pipeline(
        config, fixture_path("real_no_d3.env"), fixture_path("d3_closed.sched")
    )
    assert report.status == "holds"


def test_repaired_missions_stay_controllable(casestudy):
    # the figure supervisors are controllable w.r.t. the original missions
    for spec, figure in zip(
        casestudy["specs"], ("supervisor_agent1.aut", "supervisor_agent2.aut", "supervisor_agent3.aut")
    ):
        repaired = load_dfa(expected_path(figure))
        assert language_subset(repaired, spec) is None
        assert is_controllable(repaired, spec) is None


def test_weakest_assumptions_are_empty(casestudy):
    # no constraint over a single agent's events can rule out the other
    # agents misbehaving on their own, so every weakest assumption is empty
    mission = casestudy["mission"]
    for spec in casestudy["specs"]:
        aw = weakest_assumption(spec, mission, spec.alphabet)
        assert not accepts(aw, ())


def test_cv_membership_rejects_all_contexts(casestudy):
    mission = casestudy["mission"]
    spec1 = casestudy["specs"][0]
    assert cv_membership((), spec1, mission, spec1.alphabet) == 0
    assert cv_membership(("h1", "G1inR3"), spec1, mission, spec1.alphabet) == 0


def test_analyze_first_counterexample_is_common_violation(casestudy):
    t = ("h1", "G1inR1", "h3", "G3inR1")
    verdict = analyze_counterexample(t, casestudy["specs"], casestudy["mission"])
    assert verdict.outcome == "violated"


def test_supervised_composition_contains_fire_sequence(casestudy):
    figures = [load_dfa(expected_path(f)) for f in
               ("supervisor_agent1.aut", "supervisor_agent2.aut", "supervisor_agent3.aut")]
    product = parallel_compose_all(figures)
    assert accepts(product, ("h2", "F"))


def test_final_plans_are_separately_controllable(casestudy):
    # Def.-13-style check on the output: the composition equals the product
    # of its own projections and each plan is controllable for its plant
    figures = [load_dfa(expected_path(f)) for f in
               ("supervisor_agent1.aut", "supervisor_agent2.aut", "supervisor_agent3.aut")]
    glob = casestudy["global_alphabet"]
    joint = minimize(widen_like(parallel_compose_all(figures), glob))
    assert is_separable(joint, [a.events for a in casestudy["alphabets"]]) is None
    assert satisfies(joint, casestudy["mission"]) is None
    for plan, plant in zip(figures, casestudy["specs"]):
        assert is_controllable(plan, plant) is None


def test_shipped_mission_components_match_their_construction():
    # rebuild both mission components from the scenario's service rounds and
    # compare with the shipped canonical files
    a1, a2, a3 = agent_alphabets()
    spe1 = minimize(cycle_dfa(FIRE2, a2))
    assert dfa_to_text(spe1) == fixture_path("Lspe1.aut").read_text(encoding="utf-8")

    combo_a = parallel_compose(chain_dfa(STAY1, a1), chain_dfa(GO3, a3))
    combo_b = parallel_compose(chain_dfa(GO1, a1), chain_dfa(STAY3, a3))
    spe2_events = tuple(sorted(set(AGENT1_EVENTS) | set(AGENT3_EVENTS)))
    spe2_alpha = EventAlphabet(spe2_events, a1.controllable | a3.controllable)
    combo_a = widen_like(minimize(widen_like(combo_a, spe2_alpha)), spe2_alpha)
    combo_b = widen_like(minimize(widen_like(combo_b, spe2_alpha)), spe2_alpha)
    spe2 = minimize(prefix_closure(star_words(union_lang(combo_a, combo_b))))
    assert dfa_to_text(spe2) == fixture_path("Lspe2.aut").read_text(encoding="utf-8")


def test_expected_figures_match_their_transcriptions():
    a1, a2, a3 = agent_alphabets()
    transcribed = {
        "mission_agent1.aut": branching_mission("h1", STAY1[1:], GO1[1:], a1),
        "mission_agent3.aut": branching_mission("h3", STAY3[1:], GO3[1:], a3),
        "mission_agent2.aut": cycle_dfa(FIRE2, a2),
        "supervisor_agent1.aut": cycle_dfa(STAY1, a1),
        "supervisor_agent2.aut": cycle_dfa(FIRE2, a2),
        "supervisor_agent3.aut": cycle_dfa(GO3, a3),
    }
    for name, dfa in transcribed.items():
        shipped = load_dfa(expected_path(name))
        assert language_equal(shipped, dfa) is None, name
        assert dfa_to_text(minimize(dfa)) == expected_path(name).read_text(encoding="utf-8"), name


def test_three_agent_simulation_with_mid_run_failure():
    config = PipelineConfig.load(fixture_path("casestudy.cfg"))
    report = run_pipeline(config, schedule_path=fixture_path("d3_closed.sched"))
    assert report.status == "holds"
    lines = report.trace.splitlines()
    replans = [l for l in lines if l.endswith("replan")]
    assert len(replans) == 1 and " agent3 " in replans[0]
    assert lines[-1].endswith("r mission")
    # the mission round runs to completion for all three agents
    assert sum(1 for l in lines if l.endswith("r mission")) == 3


def test_simulation_nominal_cycle_order():
    config = PipelineConfig.load(fixture_path("casestudy.cfg"))
    report = run_pipeline(config, real_env_path=fixture_path("nominal.env"))
    lines = report.trace.splitlines()
    events = [l.split()[2] for l in lines if l.endswith("mission")]
    # the door only opens once both escorts are placed, and closes before r
    assert events.index("D1open") < events.index("G2inR1") < events.index("r")
    assert "replan" not in report.trace


def test_mission_equals_component_product(casestudy):
    spe1 = load_dfa(fixture_path("Lspe1.aut"))
    spe2 = load_dfa(fixture_path("Lspe2.aut"))
    glob = casestudy["global_alphabet"]
    rebuilt = inverse_project_intersect([spe1, spe2], glob)
    assert language_equal(rebuilt, casestudy["mission"]) is None
