"""Output oracles written apart from the program.

Everything here reads the workload's input files with its own parsers and
steps transition tables directly.  The program's automata are only read as
data (initial state and transition map); no language operation of
``cosynth`` is called.  Every check returns a list of problems, empty when
the output is correct.

(a) the composed final plans stay inside the global mission, and every
    counterexample a verification pass reported is a genuine joint violation;
(b) each closed loop is controllable w.r.t. its plant and stays inside its
    decomposed spec, with the workload-specific shape of the result;
(c) each integrated plan projects onto its mission plan, fires mission
    events in their labelled regions, and crosses only existing doors;
(d) the simulation trace is legal against the environment and the schedule;
(e) ``verify`` on the final plans holds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence


@dataclass
class Table:
    """A deterministic transition table: ``delta[state][event] -> state``."""

    events: frozenset[str]
    initial: str
    delta: dict[str, dict[str, str]]

    def step(self, q: str, e: str) -> Optional[str]:
        return self.delta.get(q, {}).get(e)

    def run(self, word: Iterable[str]) -> Optional[str]:
        q: Optional[str] = self.initial
        for e in word:
            q = self.step(q, e)  # type: ignore[arg-type]
            if q is None:
                return None
        return q

    def reachable(self) -> list[str]:
        seen = {self.initial}
        order = [self.initial]
        for q in order:
            for q2 in self.delta.get(q, {}).values():
                if q2 not in seen:
                    seen.add(q2)
                    order.append(q2)
        return order


def table_of(dfa) -> Table:
    """Read a program automaton as a table (its data only)."""
    delta: dict[str, dict[str, str]] = {}
    for (q, e), q2 in dfa.transitions.items():
        delta.setdefault(q, {})[e] = q2
    return Table(frozenset(dfa.alphabet.events), dfa.initial, delta)


# -- input files ---------------------------------------------------------------


def _lines(path: Path) -> list[str]:
    out = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_aut(path: Path) -> Table:
    """An ``.aut`` file whose states are all marked (a prefix-closed language)."""
    header: dict[str, list[str]] = {}
    delta: dict[str, dict[str, str]] = {}
    body = False
    for line in _lines(path):
        if body:
            q, e, q2 = line.split()
            delta.setdefault(q, {})[e] = q2
            continue
        key, _, rest = line.partition(":")
        header[key.strip()] = rest.split()
        body = key.strip() == "transitions"
    if set(header["marked"]) != set(header["states"]):
        raise ValueError(f"{path}: the oracles expect every state marked")
    return Table(frozenset(header["alphabet"]), header["initial"][0], delta)


@dataclass
class Environment:
    regions: tuple[str, ...]
    doors: tuple[str, ...]
    door_map: dict[tuple[str, str], tuple[str, ...]]
    initial: dict[str, str]


def parse_env(path: Path) -> Environment:
    regions: tuple[str, ...] = ()
    doors: tuple[str, ...] = ()
    door_map: dict[tuple[str, str], tuple[str, ...]] = {}
    initial: dict[str, str] = {}
    section = ""
    for line in _lines(path):
        key = line.lower()
        if key.startswith("regions:"):
            regions = tuple(line.split(":", 1)[1].split())
        elif key.startswith("doors:"):
            doors = tuple(line.split(":", 1)[1].split())
        elif key in ("adjacency:", "doormap:", "initial:"):
            section = key[:-1]
        elif section == "doormap":
            parts = line.split()
            door_map[(parts[0], parts[1])] = tuple(parts[2:])
        elif section == "initial":
            agent, region = line.split()
            initial[agent] = region
    return Environment(regions, doors, door_map, initial)


@dataclass
class Agent:
    name: str
    events: frozenset[str]
    uncontrollable: frozenset[str]
    plant: Optional[Table]
    labels: dict[str, frozenset[str]] = field(default_factory=dict)


@dataclass
class Instance:
    """A workload's inputs as the oracles see them."""

    agents: list[Agent]
    components: list[Table]
    nominal: Environment
    real: Environment
    schedule: list[tuple[int, str, str]]

    def owners(self, event: str) -> list[str]:
        return [a.name for a in self.agents if event in a.events]


def load_instance(config: Path, real_env: Path, schedule: Path) -> Instance:
    base = config.parent
    values: dict[str, list[str]] = {}
    for line in _lines(config):
        key, _, rest = line.partition(":")
        values[key.strip()] = rest.split()
    agents = []
    for name in values["agents"]:
        plant = values.get(f"plant {name}")
        agents.append(Agent(
            name,
            frozenset(values[f"alphabet {name}"]),
            frozenset(values.get(f"uncontrollable {name}", [])),
            parse_aut(base / plant[0]) if plant else None,
        ))
    by_name = {a.name: a for a in agents}
    for line in _lines(base / values["labeling"][0]):
        agent, event, *regions = line.split()
        by_name[agent].labels[event] = frozenset(regions)
    sched = []
    for line in _lines(schedule):
        step, door, state = line.split()
        sched.append((int(step), door, state))
    return Instance(
        agents,
        [parse_aut(base / m) for m in values["mission"]],
        parse_env(base / values["environment"][0]),
        parse_env(real_env),
        sched,
    )


# -- the global mission as an explicit product -----------------------------------


class Mission:
    """Reachable synchronous product of the mission components."""

    def __init__(self, components: Sequence[Table]):
        self.components = list(components)
        self.events = sorted(frozenset().union(*(c.events for c in components)))
        start = tuple(c.initial for c in components)
        self.initial = start
        self.delta: dict[tuple, dict[str, tuple]] = {}
        queue = deque([start])
        self.delta[start] = {}
        while queue:
            q = queue.popleft()
            for e in self.events:
                nxt = []
                for c, qc in zip(self.components, q):
                    if e in c.events:
                        qc = c.step(qc, e)
                        if qc is None:
                            break
                    nxt.append(qc)
                else:
                    q2 = tuple(nxt)
                    self.delta[q][e] = q2
                    if q2 not in self.delta:
                        self.delta[q2] = {}
                        queue.append(q2)

    def run(self, word: Iterable[str]) -> Optional[tuple]:
        q: Optional[tuple] = self.initial
        for e in word:
            q = self.delta[q].get(e)  # type: ignore[index]
            if q is None:
                return None
        return q


class Projection:
    """Subset construction of the mission seen through one agent's events."""

    def __init__(self, mission: Mission, events: frozenset[str]):
        self.mission = mission
        self.events = events
        self._closure: dict[tuple, frozenset] = {}
        self.initial = self.close([mission.initial])

    def close(self, states: Iterable[tuple]) -> frozenset:
        out: set = set()
        for q in states:
            c = self._closure.get(q)
            if c is None:
                seen = {q}
                stack = [q]
                while stack:
                    p = stack.pop()
                    for e, p2 in self.mission.delta[p].items():
                        if e not in self.events and p2 not in seen:
                            seen.add(p2)
                            stack.append(p2)
                c = self._closure[q] = frozenset(seen)
            out |= c
        return frozenset(out)

    def step(self, states: frozenset, e: str) -> frozenset:
        moved = [self.mission.delta[q][e] for q in states if e in self.mission.delta[q]]
        return self.close(moved) if moved else frozenset()


def language_difference(a: Mission, b: Mission) -> Optional[tuple[str, ...]]:
    """None if the two missions generate the same words, else a shortest witness."""
    if a.events != b.events:
        return ("<alphabets differ>",)
    start = (a.initial, b.initial)
    seen = {start}
    queue: deque = deque([(start, ())])
    while queue:
        (qa, qb), word = queue.popleft()
        for e in a.events:
            na, nb = a.delta[qa].get(e), b.delta[qb].get(e)
            if (na is None) != (nb is None):
                return word + (e,)
            if na is not None and (na, nb) not in seen:
                seen.add((na, nb))
                queue.append(((na, nb), word + (e,)))
    return None


def _word(w: Sequence[str]) -> str:
    return " ".join(w) or "-"


def _project(word: Sequence[str], events: frozenset[str]) -> tuple[str, ...]:
    return tuple(e for e in word if e in events)


# -- (a) the composed plans and the counterexamples --------------------------------


def check_plans_in_mission(mission: Mission, plans: Sequence[Table]) -> list[str]:
    start = (tuple(p.initial for p in plans), mission.initial)
    seen = {start}
    queue: deque = deque([(start, ())])
    events = sorted(frozenset().union(*(p.events for p in plans)))
    while queue:
        (qs, qm), word = queue.popleft()
        for e in events:
            nxt = []
            for p, q in zip(plans, qs):
                if e in p.events:
                    q = p.step(q, e)
                    if q is None:
                        break
                nxt.append(q)
            else:
                qm2 = mission.delta[qm].get(e)
                if qm2 is None:
                    return [f"(a) the composed plans leave the mission at {_word(word + (e,))}"]
                state = (tuple(nxt), qm2)
                if state not in seen:
                    seen.add(state)
                    queue.append((state, word + (e,)))
    return []


def check_counterexamples(mission: Mission, passes: Sequence[tuple[Sequence[Table], Sequence[str]]]
                          ) -> list[str]:
    problems = []
    for modules, word in passes:
        if mission.run(word) is not None:
            problems.append(f"(a) counterexample {_word(word)} is inside the mission")
        for i, m in enumerate(modules):
            if m.run(_project(word, m.events)) is None:
                problems.append(f"(a) counterexample {_word(word)} is not generated by plan {i + 1}")
    return problems


# -- (b) the closed loops --------------------------------------------------------------


def check_closed_loops(inst: Instance, mission: Mission, plans: Sequence[Table]) -> list[str]:
    problems = []
    for agent, plan in zip(inst.agents, plans):
        proj = Projection(mission, agent.events)
        plant_step: Callable
        if agent.plant is None:
            plant_step, plant_init = proj.step, proj.initial
        else:
            plant_step, plant_init = agent.plant.step, agent.plant.initial
        start = (plan.initial, plant_init, proj.initial)
        seen = {start}
        queue: deque = deque([(start, ())])
        while queue:
            (p, g, s), word = queue.popleft()
            for e in sorted(agent.events):
                p2, g2, s2 = plan.step(p, e), plant_step(g, e), proj.step(s, e)
                if p2 is None:
                    if e in agent.uncontrollable and g2:
                        problems.append(f"(b) {agent.name} disables uncontrollable {e} "
                                        f"after {_word(word)}")
                    continue
                if not g2 or not s2:
                    where = "plant" if not g2 else "spec"
                    problems.append(f"(b) {agent.name} leaves its {where} at {_word(word + (e,))}")
                    continue
                state = (p2, g2, s2)
                if state not in seen:
                    seen.add(state)
                    queue.append((state, word + (e,)))
    return problems


def enabled_events(plan: Table) -> set[str]:
    return {e for q in plan.reachable() for e in plan.delta.get(q, {})}


def check_ring_choices(inst: Instance, plans: Sequence[Table]) -> list[str]:
    """The alarmed choice is gone and every other choice of the spec is kept."""
    problems = []
    for agent, plan in zip(inst.agents, plans):
        plant = agent.plant
        if plant is None:
            problems.append(f"(b) {agent.name} has no plant model")
            continue
        alarmed = {e for q in plant.reachable() for e, q2 in plant.delta.get(q, {}).items()
                   if set(plant.delta.get(q2, {})) & agent.uncontrollable}
        spec_events = set().union(*(c.events for c in inst.components)) & agent.events
        kept = spec_events - agent.uncontrollable - alarmed
        enabled = enabled_events(plan)
        if not alarmed:
            problems.append(f"(b) {agent.name}'s plant has no alarmed choice")
        if enabled & alarmed:
            problems.append(f"(b) {agent.name} keeps alarmed {sorted(enabled & alarmed)}")
        if kept - enabled:
            problems.append(f"(b) {agent.name} lost safe choices {sorted(kept - enabled)}")
    return problems


def held_rooms(plan: Table, agent: str) -> set[str]:
    """Rooms the escort picks right after its alarm event h<n>."""
    n = agent[len("agent"):]
    rooms = set()
    for q in plan.reachable():
        q2 = plan.step(q, f"h{n}")
        if q2 is None:
            continue
        for room in ("R1", "R3"):
            if plan.step(q2, f"G{n}in{room}") is not None:
                rooms.add(room)
    return rooms


def check_escort_rooms(inst: Instance, plans: Sequence[Table],
                       pairs: Sequence[tuple[str, str]]) -> list[str]:
    by_name = {a.name: p for a, p in zip(inst.agents, plans)}
    problems = []
    for a, b in pairs:
        ra, rb = held_rooms(by_name[a], a), held_rooms(by_name[b], b)
        if sorted([tuple(ra), tuple(rb)]) != [("R1",), ("R3",)]:
            problems.append(f"(b) escorts {a}/{b} hold rooms {sorted(ra)}/{sorted(rb)}, "
                            f"not one each of R1 and R3")
    return problems


# -- (c) integrated and replanned plans ------------------------------------------------


def check_projection(agent: Agent, integrated: Table, mission_plan: Table,
                     regions: frozenset[str], what: str) -> list[str]:
    """The integrated plan with region symbols erased equals the mission plan."""

    def close(states: Iterable[str]) -> frozenset:
        seen = set(states)
        stack = list(seen)
        while stack:
            q = stack.pop()
            for e, q2 in integrated.delta.get(q, {}).items():
                if e in regions and q2 not in seen:
                    seen.add(q2)
                    stack.append(q2)
        return frozenset(seen)

    start = (mission_plan.initial, close([integrated.initial]))
    seen = {start}
    queue: deque = deque([(start, ())])
    while queue:
        (m, s), word = queue.popleft()
        for e in sorted(mission_plan.events):
            m2 = mission_plan.step(m, e)
            moved = [q2 for q in s if (q2 := integrated.step(q, e)) is not None]
            if (m2 is None) != (not moved):
                side = "mission plan" if m2 is not None else "integrated plan"
                return [f"(c) {what} of {agent.name}: only the {side} generates "
                        f"{_word(word + (e,))}"]
            if m2 is not None:
                state = (m2, close(moved))
                if state not in seen:
                    seen.add(state)
                    queue.append((state, word + (e,)))
    return []


def check_moves(agent: Agent, plan: Table, env: Environment, what: str) -> list[str]:
    """Region moves cross a door of *env*; mission events fire in a labelled region."""
    regions = set(env.regions)
    start = (plan.initial, None)
    seen = {start}
    queue: deque = deque([(start, ())])
    home = env.initial[agent.name]
    while queue:
        (q, at), word = queue.popleft()
        for e, q2 in plan.delta.get(q, {}).items():
            w = word + (e,)
            if e in regions:
                if at is None and e != home:
                    return [f"(c) {what} of {agent.name} starts in {e}, not {home}"]
                if at is not None and e != at and not env.door_map.get((at, e)):
                    return [f"(c) {what} of {agent.name} moves {at}->{e} through no door "
                            f"at {_word(w)}"]
                nxt = (q2, e)
            else:
                if at is None or at not in agent.labels.get(e, ()):
                    return [f"(c) {what} of {agent.name} fires {e} in {at} at {_word(w)}"]
                nxt = (q2, at)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w))
    return []


# -- (d) the simulation trace -------------------------------------------------------------


def check_simulation(inst: Instance, plans: Sequence[Table], trace: Optional[str],
                     stop_event: str) -> list[str]:
    if not trace:
        return ["(d) the pipeline produced no simulation trace"]
    env = inst.real
    open_doors = {d: True for d in env.doors}
    at: dict[str, Optional[str]] = {a.name: None for a in inst.agents}
    runs = {a.name: p.initial for a, p in zip(inst.agents, plans)}
    plan_of = {a.name: p for a, p in zip(inst.agents, plans)}
    labels = {a.name: a.labels for a in inst.agents}
    steps: dict[int, list[tuple[str, str, str]]] = {}
    for line in trace.splitlines():
        step, agent, symbol, kind = line.split()
        steps.setdefault(int(step), []).append((agent, symbol, kind))
    applied = 0
    schedule = sorted(inst.schedule)
    last: list[tuple[str, str, str]] = []
    for step in sorted(steps):
        while applied < len(schedule) and schedule[applied][0] <= step:
            _, door, state = schedule[applied]
            open_doors[door] = state == "open"
            applied += 1
        lines = [x for x in steps[step] if x[2] != "replan"]
        mission = [x for x in lines if x[2] == "mission"]
        for agent, symbol, kind in lines:
            if kind == "region":
                here = at[agent]
                if here is not None and here != symbol and not any(
                    open_doors[d] for d in env.door_map.get((here, symbol), ())
                ):
                    return [f"(d) step {step}: {agent} moves {here}->{symbol} "
                            f"through no open door"]
                at[agent] = symbol
            elif kind == "mission":
                if at[agent] not in labels[agent].get(symbol, ()):
                    return [f"(d) step {step}: {agent} fires {symbol} in {at[agent]}"]
                runs[agent] = plan_of[agent].step(runs[agent], symbol)
                if runs[agent] is None:
                    return [f"(d) step {step}: {agent}'s mission events leave its plan "
                            f"at {symbol}"]
            else:
                return [f"(d) step {step}: unknown trace kind {kind!r}"]
        if mission:
            symbols = {s for _, s, _ in mission}
            if len(symbols) != 1 or len(mission) != len(lines):
                return [f"(d) step {step} mixes actions {sorted(symbols)}"]
            event = symbols.pop()
            if sorted(a for a, _, _ in mission) != sorted(inst.owners(event)):
                return [f"(d) step {step}: {event} fired by {[a for a, _, _ in mission]}, "
                        f"owned by {inst.owners(event)}"]
        if lines:
            last = lines
    if not last or any(kind != "mission" or symbol != stop_event for _, symbol, kind in last):
        return [f"(d) the run does not end with {stop_event}"]
    return []
