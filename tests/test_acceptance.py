"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; a plain ``pytest`` run checks the same assertions silently.
"""

import random
import time
import warnings

import pytest

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    accepts,
    all_marked,
    dfa_to_text,
    language_empty,
    language_equal,
    language_subset,
    load_dfa,
    minimize,
    parallel_compose,
    parallel_compose_all,
    run,
)
from cosynth.fixtures import expected_path, fixture_path
from cosynth.langops import (
    decompose,
    satisfies,
    sup_c,
    widen_like,
)
from cosynth.langops import _supc_walk
from cosynth.lstar import learn
from cosynth.motion import (
    environment_from_text,
    integrate,
    labeling_from_text,
    motion_dfa,
    replan,
)
from cosynth.pipeline import PipelineConfig, run_pipeline
from cosynth.synthesis import learn_supervisor, synthesize_supervisor
from cosynth.verification import assume_guarantee
from conftest import (
    DfaTeacher,
    brute_accepts,
    random_dfa,
    reference_run_language,
    reference_supc_closed_form,
    reference_supc_fixed_point,
    validate_integrated_clauses,
    widen_alphabet,
    words_up_to,
)


def _report(criterion: int, message: str) -> None:
    print(f"criterion {criterion}: PASS: {message}")


@pytest.fixture(scope="module")
def pipeline_run():
    config = PipelineConfig.load(fixture_path("casestudy.cfg"))
    started = time.monotonic()
    report = run_pipeline(config)
    return report, time.monotonic() - started


@pytest.fixture(scope="module")
def casestudy_parts(casestudy):
    return casestudy


def test_criterion_1_decomposition(casestudy_parts):
    started = time.monotonic()
    alphabets = casestudy_parts["alphabets"]
    specs = decompose(casestudy_parts["components"], alphabets,
                      casestudy_parts["global_alphabet"]).specs
    figures = ("mission_agent1.aut", "mission_agent2.aut", "mission_agent3.aut")
    for decomposed, figure in zip(specs, figures):
        golden = load_dfa(expected_path(figure))
        assert language_equal(decomposed, golden) is None, figure
        assert dfa_to_text(minimize(decomposed)) == dfa_to_text(minimize(golden)), figure
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"decomposition took {elapsed:.2f}s"
    _report(1, f"projections built from the mission's components equal the golden decomposed missions exactly after minimisation ({elapsed:.2f}s)")


def test_criterion_2_synthesis(pipeline_run):
    report, elapsed = pipeline_run
    assert report.status == "holds"
    assert report.refinement_rounds == 1, report.refinement_rounds
    ce = report.first_counterexample
    assert ce is not None and "G1inR1" in ce and "G3inR1" in ce, ce
    for name, figure in (
        ("agent1", "supervisor_agent1.aut"),
        ("agent2", "supervisor_agent2.aut"),
        ("agent3", "supervisor_agent3.aut"),
    ):
        got = report.artifacts[f"{name}_supervisor.aut"]
        golden = load_dfa(expected_path(figure))
        assert language_equal(got, golden) is None, name
    assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s"
    _report(2, f"one refinement round, counterexample {' '.join(ce)}, supervisors equal the golden automata ({elapsed:.2f}s)")


def test_criterion_3_motion_and_integration(pipeline_run, casestudy_parts):
    report, _ = pipeline_run
    for name, figure in (
        ("agent1", "motion_agent1.aut"),
        ("agent2", "motion_agent2.aut"),
        ("agent3", "motion_agent3.aut"),
    ):
        got = report.artifacts[f"{name}_motion.aut"]
        golden = load_dfa(expected_path(figure))
        assert language_equal(got, golden) is None, name
    for name, figure in (
        ("agent1", "integrated_agent1.aut"),
        ("agent2", "integrated_agent2.aut"),
        ("agent3", "integrated_agent3.aut"),
    ):
        got = report.artifacts[f"{name}_integrated.aut"]
        golden = load_dfa(expected_path(figure))
        assert language_equal(got, golden) is None, name
    # final mission-motion check: the composed plans satisfy the mission
    mission = casestudy_parts["mission"]
    glob = casestudy_parts["global_alphabet"]
    product = minimize(widen_like(parallel_compose_all(report.mission_plans), glob))
    assert satisfies(product, mission) is None
    assert "final-check: holds" in report.text()
    _report(3, "motion and integrated plans equal the golden automata, final check holds")


def test_criterion_4_replanning(pipeline_run):
    report, _ = pipeline_run
    env = environment_from_text(fixture_path("nominal.env").read_text(encoding="utf-8"))

    lp3 = next(p for p in report.plans if p.agent == "agent3")
    gm3 = motion_dfa(env, lp3.initial_region)
    real_no_d3 = env.without_doors({"D3"})
    new3 = replan(lp3, gm3, real_no_d3)
    assert language_equal(new3.dfa, lp3.dfa) is None  # mission projection untouched
    assert language_equal(new3.mission, lp3.mission) is None
    # the R3 -> R1 leg is realised through D1l only
    for w in words_up_to(("D1l", "D3"), 3):
        if "D3" in w:
            assert not accepts(new3.profile, w)
    assert accepts(new3.profile, ("D1l", "D1l"))

    lp2 = next(p for p in report.plans if p.agent == "agent2")
    gm2 = motion_dfa(env, lp2.initial_region)
    real_no_d2 = env.without_doors({"D2"})
    new2 = replan(lp2, gm2, real_no_d2)
    assert language_equal(new2.dfa, lp2.dfa) is None
    for w in words_up_to(("D1r", "D2"), 3):
        if "D2" in w:
            assert not accepts(new2.profile, w)
    assert accepts(new2.profile, ("D1r", "D1r"))
    _report(4, "D3 outage reroutes agent3 through D1l; D2 outage leaves agent2's plan and drops D2 words")


def test_criterion_5_lstar_minimality_suite():
    rng = random.Random(2024)
    started = time.monotonic()
    for i in range(200):
        events = ("a", "b", "c")[: rng.randint(2, 3)]
        alphabet = EventAlphabet(events)
        target = minimize(random_dfa(rng, 6, events))
        teacher = DfaTeacher(target)
        got = learn(teacher, alphabet)
        assert language_equal(got, target) is None, i
        assert len(got.states) == len(target.states), i
        assert teacher.equivalence_queries <= max(1, len(target.states)), i
    elapsed = time.monotonic() - started
    _report(5, f"200/200 random targets learned minimally within the query bound ({elapsed:.1f}s)")


def test_criterion_6_supc_oracle_suite():
    rng = random.Random(4096)
    started = time.monotonic()
    done = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while done < 100:
            events = tuple("abc"[: rng.randint(2, 3)])
            controllable = frozenset(e for e in events if rng.random() < 0.6)
            alpha = EventAlphabet(events, controllable)
            plant = widen_like(all_marked(random_dfa(rng, 5, events, density=0.75)), alpha)
            strans = {k: v for k, v in plant.transitions.items() if rng.random() < 0.8}
            spec = minimize(Dfa(plant.states, alpha, plant.initial, strans,
                                frozenset(plant.states)))
            if language_empty(spec):
                continue
            done += 1
            learned = learn_supervisor(spec, plant)
            assert learned == synthesize_supervisor(spec, plant), done
            oracle = sup_c(spec, plant)
            if language_empty(oracle):
                assert language_empty(learned), done
            else:
                closed_loop = all_marked(parallel_compose(learned, plant))
                assert language_equal(closed_loop, oracle) is None, done
            plant_gen = minimize(all_marked(plant))
            # all four are canonical, so equal languages give equal texts
            walk = dfa_to_text(_supc_walk(spec, plant_gen, alpha))
            closed = dfa_to_text(reference_supc_closed_form(spec, plant_gen, alpha))
            fixed = dfa_to_text(reference_supc_fixed_point(spec, plant_gen, alpha))
            assert walk == closed == fixed == dfa_to_text(oracle), done
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"supC suite took {elapsed:.1f}s"
    _report(6, f"100/100 instances: learner equals supC and the walk, the closed form and the fixed point agree ({elapsed:.1f}s)")


def test_criterion_7_compositional_soundness_suite():
    rng = random.Random(7777)
    done = 0
    while done < 50:
        shared = ("s",)
        m1 = minimize(all_marked(random_dfa(rng, 3, ("a",) + shared, density=0.8)))
        m2 = minimize(all_marked(random_dfa(rng, 3, ("b",) + shared, density=0.8)))
        prop = minimize(all_marked(random_dfa(rng, 4, ("a", "b", "s"), density=0.85)))
        if language_empty(prop):
            continue
        done += 1
        verdict, _assumptions, _fallback = assume_guarantee([m1, m2], prop)
        product = parallel_compose_all([m1, m2])
        direct = satisfies(widen_alphabet(product, prop.alphabet), prop)
        assert verdict.holds() == (direct is None), done
        if not verdict.holds():
            ce = verdict.counterexample
            assert ce is not None
            # confirmed by simulating the word on each module against coL
            assert not brute_accepts(prop, tuple(s for s in ce if s in prop.alphabet))
            for m in (m1, m2):
                local = tuple(s for s in ce if s in m.alphabet)
                assert brute_accepts(m, local), done
    _report(7, "50/50 instances: assume-guarantee verdicts match monolithic checking")


def test_criterion_8_adequacy_and_clause_suite(pipeline_run):
    report, _ = pipeline_run
    env = environment_from_text(fixture_path("nominal.env").read_text(encoding="utf-8"))
    labelings = labeling_from_text(
        fixture_path("labels.pi").read_text(encoding="utf-8"), env.regions
    )
    checked = 0
    scenarios = [(lp, env) for lp in report.plans]
    for closed in ({"D3"}, {"D2"}):
        real = env.without_doors(closed)
        for lp in report.plans:
            gm = motion_dfa(env, lp.initial_region)
            scenarios.append((replan(lp, gm, real), real))
    for lp, world in scenarios:
        gm = motion_dfa(world, lp.initial_region)
        nominal = motion_dfa(env, lp.initial_region)
        lifted = integrate(lp.mission, lp.labeling, lp.initial_region, nominal).motion_plan
        assert satisfies(lp.motion_plan, lifted) is None  # adequacy clause 1
        runs = reference_run_language(gm, stutter=True)
        assert language_subset(lp.motion_plan, runs) is None  # adequacy clause 2
        validate_integrated_clauses(lp.dfa, lp.labeling, lp.initial_region)
        checked += 1
    assert checked == 9
    _report(8, f"{checked} plans pass adequacy and the integrated-plan clauses on every step")


def test_criterion_9_pipeline_determinism(tmp_path):
    config_path = fixture_path("casestudy.cfg")
    outputs = []
    for run_dir in (tmp_path / "one", tmp_path / "two"):
        config = PipelineConfig.load(config_path)
        report = run_pipeline(
            config,
            real_env_path=fixture_path("real_no_d3.env"),
            schedule_path=fixture_path("d3_closed.sched"),
        )
        report.save(run_dir)
        outputs.append(run_dir)
    first, second = outputs
    names1 = sorted(p.name for p in first.iterdir())
    names2 = sorted(p.name for p in second.iterdir())
    assert names1 == names2
    for name in names1:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    _report(9, f"two full runs produced byte-identical reports and {len(names1) - 1} artifacts")
