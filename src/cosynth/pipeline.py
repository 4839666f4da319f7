"""End-to-end synthesis pipeline: mission decomposition, supervisor synthesis,
verification with refinement, motion planning, and optional
replanning plus simulation against a real environment.

All outputs are canonical automaton files plus one deterministic report:
identical inputs produce byte-identical artifacts.  Wall-clock timings are
therefore written to the log stream, never into the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    InputError,
    Word,
    all_marked,
    dfa_to_text,
    language_empty,
    language_subset,
    load_dfa,
    minimal_product,
)
from cosynth.langops import decompose, widen_like
from cosynth.motion import (
    IntegratedPlan,
    environment_from_text,
    integrate_agent,
    labeling_from_text,
    motion_dfa,
    replan,
    schedule_from_text,
    simulate,
)
from cosynth.verification import RefinementResult, verify_and_refine


@dataclass
class AgentConfig:
    name: str
    alphabet: EventAlphabet
    plant_path: Optional[Path] = None


@dataclass
class PipelineConfig:
    agents: list[AgentConfig]
    mission_paths: list[Path]
    environment_path: Optional[Path] = None
    labeling_path: Optional[Path] = None
    max_rounds: int = 100  # repairs the refinement may make in one run

    @staticmethod
    def load(path: "Path | str") -> "PipelineConfig":
        path = Path(path)
        base = path.parent
        agent_names: list[str] = []
        agents_line = 0
        keyed: list[tuple[int, str, str]] = []  # (line, key, agent) of agent-keyed lines
        alphabets: dict[str, tuple[str, ...]] = {}
        uncontrollable: dict[str, set[str]] = {}
        plants: dict[str, Path] = {}
        mission: list[Path] = []
        environment: Optional[Path] = None
        labeling: Optional[Path] = None
        first_line: dict[str, int] = {}  # per key, words single-spaced: the line giving it

        def one_file(lineno: int, key: str, values: list[str]) -> Path:
            if len(values) != 1:
                raise InputError(f"{path}:{lineno}: {key} wants exactly one file,"
                                 f" got {len(values)}")
            return base / values[0]

        for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, colon, rest = line.partition(":")
            if not colon:
                raise InputError(f"{path}:{lineno}: expected 'key: values', got {line!r}")
            key = key.strip()
            values = rest.split()
            first = first_line.setdefault(" ".join(key.split()), lineno)
            if first != lineno:
                raise InputError(f"{path}:{lineno}: key {key!r} already given on line {first}")
            if key == "agents":
                agent_names, agents_line = values, lineno
            elif key == "mission":
                mission = [base / v for v in values]
            elif key == "environment":
                environment = one_file(lineno, key, values)
            elif key == "labeling":
                labeling = one_file(lineno, key, values)
            elif key.startswith(("alphabet ", "uncontrollable ", "plant ")):
                kind, name = key.split(None, 1)
                keyed.append((lineno, kind, name))
                if kind == "alphabet":
                    alphabets[name] = tuple(values)
                elif kind == "uncontrollable":
                    uncontrollable[name] = set(values)
                else:
                    plants[name] = one_file(lineno, key, values)
            else:
                raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        if not agent_names:
            raise InputError(f"{path}: no agents declared")
        for name in agent_names:
            if agent_names.count(name) > 1:
                raise InputError(f"{path}:{agents_line}: agent {name!r} listed twice")
        for lineno, kind, name in keyed:
            if name not in agent_names:
                raise InputError(f"{path}:{lineno}: {kind} of undeclared agent {name!r}")
        if not mission:
            raise InputError(f"{path}: no mission components declared")
        agents = []
        for name in agent_names:
            if name not in alphabets:
                raise InputError(f"{path}: agent {name!r} has no alphabet")
            events = alphabets[name]
            uc = uncontrollable.get(name, set())
            if not uc <= set(events):
                raise InputError(f"{path}: uncontrollable events of {name!r} outside its alphabet")
            agents.append(
                AgentConfig(
                    name,
                    EventAlphabet(events, frozenset(events) - uc),
                    plants.get(name),
                )
            )
        return PipelineConfig(agents, mission, environment, labeling)


@dataclass
class PipelineReport:
    lines: list[str] = field(default_factory=list)
    artifacts: dict[str, Dfa] = field(default_factory=dict)
    status: str = "holds"
    refinement_rounds: int = 0
    first_counterexample: Optional[Word] = None
    plans: list[IntegratedPlan] = field(default_factory=list)
    mission_plans: list[Dfa] = field(default_factory=list)
    trace: Optional[str] = None

    def add(self, line: str = "") -> None:
        self.lines.append(line)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def save(self, outdir: "Path | str") -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, dfa in sorted(self.artifacts.items()):
            (outdir / name).write_text(dfa_to_text(dfa), encoding="utf-8")
        (outdir / "report.txt").write_text(self.text(), encoding="utf-8")
        if self.trace is not None:
            (outdir / "trace.txt").write_text(self.trace, encoding="utf-8")


def _word(w: Optional[Word]) -> str:
    if w is None:
        return "-"
    return " ".join(w) or "-"


def _log(stream, message: str) -> None:
    if stream is not None:
        print(message, file=stream)


def independence_transitive(alphabets: Sequence[EventAlphabet]) -> bool:
    """Transitivity of the independence relation ('no shared agent') on events."""
    events = sorted({e for a in alphabets for e in a.events})
    owners = {e: frozenset(i for i, a in enumerate(alphabets) if e in a) for e in events}

    def independent(a: str, b: str) -> bool:
        return not (owners[a] & owners[b])

    for a in events:
        for b in events:
            if a == b or not independent(a, b):
                continue
            for c in events:
                if c in (a, b):
                    continue
                if independent(b, c) and not independent(a, c):
                    return False
    return True


def global_alphabet_of(agents: Sequence[AgentConfig]) -> EventAlphabet:
    """The agents' events in sorted order; an event is controllable iff some
    agent controls it."""
    events = tuple(sorted({e for a in agents for e in a.alphabet.events}))
    controlled = {e for a in agents for e in a.alphabet.controllable}
    return EventAlphabet(events, frozenset(events) & controlled)


def run_pipeline(
    config: PipelineConfig,
    real_env_path: "Path | str | None" = None,
    schedule_path: "Path | str | None" = None,
    log_stream=None,
    stop_event: Optional[str] = "r",
) -> PipelineReport:
    """Execute the full synthesis pipeline and return the report.

    The global mission is the product of the mission components over the
    agents' events.  Its minimal automaton, built in one integer walk by
    :func:`minimal_product`, is written as ``mission.aut`` and is the
    property each verification pass checks; the decomposition works on the
    components themselves.  The refinement loop ends only on a pass that
    holds for the final plans, so that pass is the report's final check.
    """
    started = time.monotonic()
    report = PipelineReport()
    agents = config.agents
    names = [a.name for a in agents]

    # global mission: synchronous product of the components over the global
    # alphabet; an event is uncontrollable iff no agent controls it
    global_alphabet = global_alphabet_of(agents)
    global_events = global_alphabet.events
    components = [load_dfa(p) for p in config.mission_paths]
    for comp in components:
        if not set(comp.alphabet.events) <= set(global_events):
            raise InputError("mission component alphabet outside the agents' global alphabet")
    mission = minimal_product(components, global_alphabet)
    if language_empty(mission):
        raise InputError("the global mission language is empty")

    report.add("cosynth pipeline report")
    report.add(f"agents: {' '.join(names)}")
    report.add(f"global-events: {' '.join(global_events)}")
    report.add(f"global-uncontrollable: {' '.join(sorted(global_alphabet.uncontrollable))}")
    report.add(f"mission-states: {len(mission.states)}")
    transitive = independence_transitive([a.alphabet for a in agents])
    report.add(f"independence-transitive: {'yes' if transitive else 'no'}")
    if not transitive:
        _log(log_stream, "warning: independence relation not transitive; "
                         "a non-empty separable sublanguage is not guaranteed")
    report.artifacts["mission.aut"] = mission

    # mission decomposition: each local spec is the mission's projection onto
    # the agent's events, built from the components without the mission
    decomposition = decompose(components, [a.alphabet for a in agents], global_alphabet)
    specs = decomposition.specs
    plants: list[Dfa] = []
    report.add()
    for agent, spec in zip(agents, specs):
        if agent.plant_path is not None:
            plant = widen_like(load_dfa(agent.plant_path), agent.alphabet)
            # supC and controllability read the plant's generated language
            below = language_subset(spec, all_marked(plant))
            if below is not None:
                raise InputError(
                    f"decomposed mission of {agent.name} leaves its plant at {_word(below)}"
                )
        else:
            plant = spec  # plant-free mode: the decomposed mission is the
            # most permissive behaviour the mission layer may assume
        plants.append(plant)
        report.add(f"agent {agent.name}")
        report.add(f"  alphabet: {' '.join(agent.alphabet.events)}")
        report.add(f"  uncontrollable: {' '.join(sorted(agent.alphabet.uncontrollable))}")
        report.add(f"  decomposed-spec: {agent.name}_spec.aut states={len(spec.states)}")
        report.artifacts[f"{agent.name}_spec.aut"] = spec
    _log(log_stream, f"decomposition done at {time.monotonic() - started:.2f}s"
                     f" (largest local product: {max(decomposition.product_states)} states)")

    # supervisor synthesis + verification with refinement
    result: RefinementResult = verify_and_refine(
        specs, plants, mission, max_rounds=config.max_rounds
    )
    report.add()
    report.add("verification")
    for i, rnd in enumerate(result.rounds, start=1):
        ce = rnd.verdict.counterexample
        report.add(f"  pass {i}: verdict={rnd.verdict.outcome}"
                   + (f" counterexample=\"{_word(ce)}\"" if ce is not None else ""))
        for agent_idx, w in rnd.repairs:
            report.add(f"    repair {names[agent_idx]}: cut \"{_word(w)}\"")
        report.add(f"    product-states: {rnd.product_states}")
    report.add(f"  refinement-rounds: {result.refinement_rounds}")
    report.refinement_rounds = result.refinement_rounds
    for rnd in result.rounds:
        if rnd.verdict.counterexample is not None:
            report.first_counterexample = rnd.verdict.counterexample
            break
    if result.status != "holds":
        report.status = result.status
        if result.status == "undecided":
            report.add(f"  out-of-rounds: {sum(len(r.repairs) for r in result.rounds)} repairs")
        elif result.counterexample is None:
            empty = " ".join(n for n, plan in zip(names, result.plans) if not plan.marked)
            report.add(f"  infeasible: empty supervisor {empty}")
        else:
            report.add(f"  infeasible: counterexample \"{_word(result.counterexample)}\"")
        report.add()
        report.add(f"status: {report.status}")
        return report
    # each supervisor is its own closed loop with the plant: the mission plan
    report.mission_plans = list(result.plans)
    for name, sup in zip(names, result.plans):
        report.artifacts[f"{name}_supervisor.aut"] = sup
        report.artifacts[f"{name}_plan.aut"] = sup
        report.add(f"  supervisor {name}: {name}_supervisor.aut states={len(sup.states)}")
    # the last pass held against the mission for these very plans
    report.add("  final-check: holds")
    _log(log_stream, f"mission layer done at {time.monotonic() - started:.2f}s")

    # motion planning
    if config.environment_path is not None:
        if config.labeling_path is None:
            raise InputError("motion planning needs a labeling file")
        env = environment_from_text(
            Path(config.environment_path).read_text(encoding="utf-8"),
            source=str(config.environment_path),
        )
        if set(env.doors) & set(global_events) or set(env.regions) & set(global_events):
            raise InputError("regions and doors must be disjoint from mission events")
        labelings = labeling_from_text(
            Path(config.labeling_path).read_text(encoding="utf-8"),
            env.regions,
            source=str(config.labeling_path),
        )
        report.add()
        report.add("motion")
        plans: list[IntegratedPlan] = []
        for name, mission_plan in zip(names, result.plans):
            lp = integrate_agent(mission_plan, labelings, env, name)
            plans.append(lp)
            report.artifacts[f"{name}_motion.aut"] = lp.motion_plan
            report.artifacts[f"{name}_integrated.aut"] = lp.dfa
            report.artifacts[f"{name}_profile.aut"] = lp.profile
            report.add(
                f"  {name}: motion={len(lp.motion_plan.states)} integrated={len(lp.dfa.states)}"
                f" profile={len(lp.profile.states)} initial-region={lp.initial_region}"
            )
        report.plans = plans
        _log(log_stream, f"motion layer done at {time.monotonic() - started:.2f}s")

        if real_env_path is not None:
            real_env = environment_from_text(
                Path(real_env_path).read_text(encoding="utf-8"), source=str(real_env_path)
            )
            report.add()
            report.add("replanning")
            replanned: list[IntegratedPlan] = []
            for lp in plans:
                new_lp = replan(lp, motion_dfa(env, lp.initial_region), real_env)
                replanned.append(new_lp)
                # replan returns a plan it keeps as it is, and a splice always
                # removes the word through the lost doors
                same = new_lp.dfa is lp.dfa
                report.artifacts[f"{new_lp.agent}_replanned.aut"] = new_lp.dfa
                report.artifacts[f"{new_lp.agent}_replanned_profile.aut"] = new_lp.profile
                report.add(f"  {new_lp.agent}: plan-{'unchanged' if same else 'rerouted'}"
                           f" profile={len(new_lp.profile.states)}")
            report.plans = replanned
            plans = replanned
            env = real_env
        schedule = []
        if schedule_path is not None:
            schedule = schedule_from_text(
                Path(schedule_path).read_text(encoding="utf-8"), source=str(schedule_path)
            )
        if real_env_path is not None or schedule:
            sim = simulate(plans, env, schedule, stop_event=stop_event)
            report.add()
            report.add("simulation")
            report.add(f"  steps: {len(sim.trace)}")
            report.add(f"  completed: {'yes' if sim.completed else 'no'}")
            if sim.deadlock:
                report.status = "infeasible"
                report.add(f"  deadlock: {sim.deadlock}")
            report.trace = sim.text()

    report.add()
    report.add(f"status: {report.status}")
    _log(log_stream, f"pipeline done at {time.monotonic() - started:.2f}s")
    return report
