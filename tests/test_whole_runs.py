"""Whole pipeline runs on small random instances, checked by the benchmark's
generic output oracles (``perfbench/oracles.py``, imported read-only).

Each instance has two or three agents that share events, prefix-closed
mission components that together name every event, optional one-state
plants, a nominal environment with a door for every ordered region pair
(so integration always finds a motion plan), a real environment that has
lost one door and a schedule that closes one more.  The two lost doors
leave and enter different regions, so every region still reaches every
other and no replanning is infeasible.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosynth import verification
from cosynth.pipeline import PipelineConfig, run_pipeline
from cosynth.verification import verify
from conftest import perfbench_generate, perfbench_oracles

GEN = perfbench_generate()
ORACLES = perfbench_oracles()


def _random_aut(rng, events: list[str], controllable: list[str]) -> str:
    """An all-marked automaton of one to three states, so its language is
    prefix-closed."""
    n = rng.randint(1, 3)
    transitions = [(q, e, rng.randrange(n)) for q in range(n) for e in events
                   if rng.random() < 0.6]
    return GEN.aut_text(n, events, controllable, transitions)


def _write_instance(rng, outdir):
    """The input files of a random instance, and its stop event."""
    pool = [f"e{k}" for k in range(rng.randint(4, 6))]
    agents = [f"a{i}" for i in range(1, rng.randint(2, 3) + 1)]
    alphabets = {}
    for i, agent in enumerate(agents):
        shared = [pool[0]] if i < 2 else []  # the first two agents share e0
        rest = [e for e in pool if e not in shared]
        alphabets[agent] = shared + rng.sample(rest, rng.randint(2, 4) - len(shared))
    events = sorted({e for alphabet in alphabets.values() for e in alphabet})
    uncontrollable = {a: [e for e in alphabets[a] if rng.random() < 0.3] for a in agents}
    files: dict[str, str] = {}
    plants = {}
    for agent in agents:
        if rng.random() < 0.5:
            controllable = [e for e in alphabets[agent] if e not in uncontrollable[agent]]
            files[f"plant_{agent}.aut"] = GEN.aut_text(
                1, sorted(alphabets[agent]), controllable,
                [(0, e, 0) for e in sorted(alphabets[agent])])
            plants[agent] = f"plant_{agent}.aut"
    scopes = [set(rng.sample(events, rng.randint(1, min(3, len(events)))))
              for _ in range(rng.randint(1, 2))]
    for e in events:  # an event no component names would be free in the mission
        if not any(e in scope for scope in scopes):
            rng.choice(scopes).add(e)
    missions = []
    for j, scope in enumerate(scopes):
        files[f"mission{j}.aut"] = _random_aut(rng, sorted(scope), sorted(scope))
        missions.append(f"mission{j}.aut")
    files["random.cfg"] = GEN.config_text(agents, missions, alphabets, uncontrollable, plants)

    regions = [f"R{j}" for j in range(rng.randint(3, 4))]
    pairs = [(a, b) for a in regions for b in regions if a != b]
    nominal = {(a, b): [f"d{a[1:]}{b[1:]}"] for a, b in pairs}
    doors = [ds[0] for ds in nominal.values()]
    lost = rng.choice(pairs)
    closed = rng.choice([(a, b) for a, b in pairs if a != lost[0] and b != lost[1]])
    initial = {agent: rng.choice(regions) for agent in agents}
    files["nominal.env"] = GEN.env_text(regions, doors, nominal, initial)
    files["real.env"] = GEN.env_text(regions, doors, {**nominal, lost: []}, initial)
    files["labels.pi"] = "".join(
        f"{agent} {e} " + " ".join(rng.sample(regions, rng.randint(1, 2))) + "\n"
        for agent in agents for e in alphabets[agent])
    files["doors.sched"] = f"{rng.randint(0, 10)} {nominal[closed][0]} closed\n"
    for name, text in files.items():
        (outdir / name).write_text(text, encoding="utf-8")
    return (GEN.InstanceFiles(outdir / "random.cfg", outdir / "real.env",
                              outdir / "doors.sched"), rng.choice(events))


def _oracle_problems(files, report, passes, stop: str) -> list[str]:
    """What oracles (a)-(d) find wrong in a run that holds."""
    inst = ORACLES.load_instance(files.config, files.real_env, files.schedule)
    mission = ORACLES.Mission(inst.components)
    regions = frozenset(inst.nominal.regions)
    plans = [ORACLES.table_of(p) for p in report.mission_plans]
    problems = ORACLES.check_plans_in_mission(mission, plans)
    problems += ORACLES.check_counterexamples(mission, [
        ([ORACLES.table_of(m) for m in modules], verdict.counterexample)
        for modules, verdict in passes if verdict.counterexample is not None
    ])
    problems += ORACLES.check_closed_loops(inst, mission, plans)
    for agent, plan in zip(inst.agents, plans):
        for kind, env in (("integrated", inst.nominal), ("replanned", inst.real)):
            table = ORACLES.table_of(report.artifacts[f"{agent.name}_{kind}.aut"])
            problems += ORACLES.check_projection(agent, table, plan, regions, f"{kind} plan")
            problems += ORACLES.check_moves(agent, table, env, f"{kind} plan")
    simulation = ORACLES.check_simulation(inst, plans, report.trace, stop)
    if "  completed: no" in report.lines:  # the stop event never came; each step still counts
        simulation = [p for p in simulation if p != f"(d) the run does not end with {stop}"]
    return problems + simulation


@pytest.mark.filterwarnings("ignore:supremal controllable sublanguage is empty")
@settings(max_examples=30, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_whole_runs_on_random_instances_pass_the_oracles(rng, tmp_path_factory):
    # a run that holds passes oracles (a)-(d) of the benchmark; any other run
    # says why it does not hold
    files, stop = _write_instance(rng, tmp_path_factory.mktemp("instance"))
    passes = []  # the plans and verdict of every verification pass, for oracle (a)

    def recording(modules, prop):
        result = verify(modules, prop)
        passes.append((list(modules), result[0]))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "verify", recording)
        report = run_pipeline(PipelineConfig.load(files.config), files.real_env,
                              files.schedule, stop_event=stop)
    if report.status != "holds":
        assert report.status in ("infeasible", "undecided")
        return
    assert _oracle_problems(files, report, passes, stop) == []
