"""Environment model, motion plans, mission-motion integration, and replanning.

Regions and doors live in a partitioned environment; an agent's motion
capabilities are the trim automaton whose states are regions and whose
events are doors.  An integrated plan interleaves a mission plan with the
region moves its events need, in one pass over the mission automaton.
Its region projection is the motion plan, the mission's region itinerary,
which must be executable in the motion model.

Two run semantics coexist deliberately.  Adequacy (is every region word
of a motion plan executable?) uses stutter-closed runs: an agent may dwell
in a region across steps, which the integrated plans produced here require
at cycle boundaries.  One walk over the motion plan with the agent's last
region decides it and names the first region change no door makes.  Door
realisation (which door words implement a region word?) uses strict runs:
every region change costs exactly one door event; :func:`door_profile`
builds those door words.

Replanning adapts an integrated plan to a real environment whose doors may
differ from the nominal model.  A plan the real environment still serves is
kept as it is.  Otherwise replanning works on the plan automaton, never on
its words: the plan is walked together with the agent's last region, every
region change left without a door is spliced into a chain through the
shortest real detour, and the result is determinised and minimised, so its
cost is polynomial in plan states × regions.

Integration and splicing keep the mission projection and the plan's
clauses by construction, and a splice leaves no region change without a
real door, so neither re-checks its result; the tests assert each of
these as a property.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Optional, Sequence

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    InputError,
    InvariantError,
    _determinize,
    _out_edges,
    empty_dfa,
    minimize,
    trim,
)
from cosynth.langops import project


class MotionInfeasible(RuntimeError):
    """No adequate motion plan exists; carries the offending region pair."""

    def __init__(self, pair: tuple[str, str]):
        super().__init__(f"no door connects {pair[0]} to {pair[1]}")
        self.pair = pair


class ReplanInfeasible(RuntimeError):
    """The real environment offers no path between two required regions."""

    def __init__(self, pair: tuple[str, str]):
        super().__init__(f"no path from {pair[0]} to {pair[1]} in the real environment")
        self.pair = pair


@dataclass(frozen=True)
class Environment:
    """Partitioned environment: regions, adjacency, doors, and the door map."""

    regions: tuple[str, ...]
    adjacency: tuple[tuple[str, str], ...]
    doors: tuple[str, ...]
    door_map: Mapping[tuple[str, str], tuple[str, ...]]
    initial_regions: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "adjacency", tuple(tuple(p) for p in self.adjacency))
        object.__setattr__(self, "doors", tuple(self.doors))
        object.__setattr__(self, "door_map", {tuple(k): tuple(v) for k, v in self.door_map.items()})
        object.__setattr__(self, "initial_regions", dict(self.initial_regions))
        region_set = set(self.regions)
        if set(self.doors) & region_set:
            raise InputError("door and region labels must be disjoint")
        for pair in self.door_map:
            if pair not in set(self.adjacency):
                raise InputError(f"door map entry {pair} not in the adjacency relation")
            if not set(self.door_map[pair]) <= set(self.doors):
                raise InputError(f"unknown door in map entry {pair}")
        for v, v2 in self.adjacency:
            if v not in region_set or v2 not in region_set:
                raise InputError(f"adjacency pair ({v},{v2}) references unknown regions")
        for agent, region in self.initial_regions.items():
            if region not in region_set:
                raise InputError(f"initial region {region!r} of {agent} unknown")

    def doors_between(self, v: str, v2: str) -> tuple[str, ...]:
        return self.door_map.get((v, v2), ())

    def without_doors(self, closed: set[str]) -> "Environment":
        door_map = {pair: tuple(d for d in ds if d not in closed)
                    for pair, ds in self.door_map.items()}
        return replace(self, door_map=door_map)


@dataclass(frozen=True)
class LabelingMap:
    """Per-agent map from mission events to the regions where they may occur."""

    regions: tuple[str, ...]
    mapping: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", {e: frozenset(r) for e, r in self.mapping.items()})
        for event, targets in self.mapping.items():
            if not targets:
                raise InputError(f"event {event!r} mapped to no region")
            if not targets <= set(self.regions):
                raise InputError(f"event {event!r} mapped outside the region set")

    def of(self, event: str) -> frozenset[str]:
        try:
            return self.mapping[event]
        except KeyError:
            raise InputError(f"no region assigned to event {event!r}") from None

    def ordered(self, event: str) -> tuple[str, ...]:
        targets = self.of(event)
        return tuple(r for r in self.regions if r in targets)


def motion_dfa(env: Environment, initial_region: str) -> Dfa:
    """Trim DFA over doors: one state per region, moves follow the door map."""
    if initial_region not in env.regions:
        raise InputError(f"initial region {initial_region!r} not in the environment")
    transitions: dict[tuple[str, str], str] = {}
    for (v, v2), doors in env.door_map.items():
        for d in doors:
            existing = transitions.get((v, d))
            if existing is not None and existing != v2:
                raise InputError(f"door {d!r} leads from {v!r} to both {existing!r} and {v2!r}")
            transitions[(v, d)] = v2
    alphabet = EventAlphabet(env.doors, frozenset(env.doors))
    dfa = Dfa(env.regions, alphabet, initial_region, transitions, frozenset(env.regions))
    return trim(dfa)


# -- integrated-plan construction -----------------------------------------


def _interleave(mission: Dfa, pi: LabelingMap, initial_region: str) -> Dfa:
    """Insert region symbols in front of the mission events they relocate.

    The construction tracks the agent's region through the mission
    automaton.  A mission event doable in the current region keeps the
    region; otherwise a committed region move is inserted first.  Reaching
    the mission's initial state back in the initial region closes the loop
    through the plan's entry state, which re-asserts the initial region at
    every mission cycle.
    """
    regions = pi.regions
    if set(regions) & set(mission.alphabet.events):
        raise InputError("region labels collide with mission events")
    for e in mission.alphabet.events:
        pi.of(e)  # raises for unlabelled events
    alphabet = EventAlphabet(
        tuple(regions) + tuple(mission.alphabet.events),
        frozenset(regions) | mission.alphabet.controllable,
    )
    entry = "entry"
    home = (mission.initial, initial_region)

    def node(q: str, v: str) -> str:
        return f"{q}@{v}"

    def move_node(q: str, v: str, v2: str) -> str:
        return f"{q}@{v}>{v2}"

    mission_edges = _out_edges(mission)
    transitions: dict[tuple[str, str], str] = {(entry, initial_region): node(*home)}
    states = {entry, node(*home)}
    queue = deque([home])
    seen = {home}

    def target(q2: str, v2: str) -> str:
        if (q2, v2) == home:
            return entry
        pair = (q2, v2)
        if pair not in seen:
            seen.add(pair)
            queue.append(pair)
        return node(q2, v2)

    while queue:
        q, v = queue.popleft()
        src = node(q, v)
        moves: dict[str, list[tuple[str, str]]] = {}
        for _, e, q2 in mission_edges.get(q, ()):
            placements = pi.ordered(e)
            if v in placements:
                transitions[(src, e)] = target(q2, v)
            for v2 in placements:
                if v2 != v:
                    moves.setdefault(v2, []).append((e, q2))
        for v2, steps in moves.items():
            mid = move_node(q, v, v2)
            states.add(mid)
            transitions[(src, v2)] = mid
            for e, q2 in steps:
                transitions[(mid, e)] = target(q2, v2)
    states |= {node(q, v) for q, v in seen}
    ordered = (entry,) + tuple(sorted(states - {entry}))
    dfa = Dfa(ordered, alphabet, entry, transitions, frozenset(ordered))
    return trim(dfa)


_Node = tuple[str, Optional[str]]  # plan state, last region (None before the first)


def _region_edges(dfa: Dfa, regions: set[str]) -> Iterator[tuple[_Node, str, _Node]]:
    """Edges of the plan × last-region product, breadth-first from the start.

    A region symbol sets the agent's last region and a mission event keeps
    it.  The walk is lazy, so a caller that stops early allocates nothing
    beyond the plan's out-edges and the nodes seen so far.
    """
    edges = _out_edges(dfa)
    start: _Node = (dfa.initial, None)
    seen = {start}
    queue = deque([start])
    while queue:
        q, v = node = queue.popleft()
        for _, e, q2 in edges.get(q, ()):
            nxt = (q2, e if e in regions else v)
            yield node, e, nxt
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def _motion_gap(motion_plan: Dfa, motion: Dfa) -> Optional[tuple[str, str]]:
    """The first region change of the motion plan that ``motion`` cannot make.

    The plan is walked breadth first together with the agent's last region,
    each state's moves in the plan's event order; dwelling in the last
    region is always allowed.  Returns ``(motion.initial, e)`` when the plan
    starts in another region e, ``(v, e)`` for the first move from v to e
    that no door makes, and None when every region word of the plan is a
    stutter-closed run of ``motion``.
    """
    steps = {(v, v2) for (v, _), v2 in motion.transitions.items()}
    for (_, v), e, _ in _region_edges(motion_plan, set(motion_plan.alphabet.events)):
        if v is None:
            if e != motion.initial:
                return motion.initial, e
        elif e != v and (v, e) not in steps:
            return v, e
    return None


def door_profile(motion_plan: Dfa, motion: Dfa) -> Dfa:
    """Door words whose strict runs trace a region word of the motion plan.

    The motion plan must lie within the stutter-closed runs of ``motion``:
    :func:`integrate` and :func:`replan` check that before they call this,
    except on a spliced plan, which meets it by construction.
    """
    p0 = motion_plan.transitions.get((motion_plan.initial, motion.initial))
    if p0 is None or p0 not in motion_plan.marked:
        return empty_dfa(motion.alphabet)
    motion_edges = _out_edges(motion)
    start = (motion.initial, p0)
    order = [start]
    seen = {start}
    transitions: dict[tuple[str, str], str] = {}
    queue = deque(order)

    def name(v: str, p: str) -> str:
        return f"{v}|{p}"

    while queue:
        v, p = queue.popleft()
        for _, d, v2 in motion_edges.get(v, ()):
            p2 = motion_plan.transitions.get((p, v2))
            if p2 is None or p2 not in motion_plan.marked:
                continue
            transitions[(name(v, p), d)] = name(v2, p2)
            if (v2, p2) not in seen:
                seen.add((v2, p2))
                order.append((v2, p2))
                queue.append((v2, p2))
    states = tuple(name(v, p) for v, p in order)
    dfa = Dfa(states, motion.alphabet, name(*start), transitions, frozenset(states))
    return minimize(dfa)


@dataclass(frozen=True)
class IntegratedPlan:
    """A mission-motion plan with its projections and door profile.

    ``motion_plan`` is the canonical region projection of ``dfa``
    (``project(dfa, labeling.regions)``); :func:`replan` returns it as it is
    when the real environment still serves the plan.
    """

    agent: str
    dfa: Dfa
    mission: Dfa
    motion_plan: Dfa
    profile: Dfa
    initial_region: str
    labeling: LabelingMap


def integrate(
    mission: Dfa,
    pi: LabelingMap,
    initial_region: str,
    motion: Dfa,
    agent: str = "agent",
) -> IntegratedPlan:
    """The integrated plan of a mission plan, with its motion plan and door profile.

    The mission plan is interleaved once with the region moves its events
    need.  The motion plan is the region projection of the result: the
    mission's region itinerary, consecutive duplicates merged and each
    cycle anchored at the initial region.  Raises :class:`MotionInfeasible`
    when that itinerary needs a region change the motion model cannot
    perform.  The plan's mission projection is the mission, and it starts
    in the initial region and fires each event where π allows: both hold
    by the construction of :func:`_interleave`.
    """
    lp = _interleave(mission, pi, initial_region)
    motion_plan = project(lp, pi.regions)
    gap = _motion_gap(motion_plan, motion)
    if gap is not None:
        raise MotionInfeasible(gap)
    profile = door_profile(motion_plan, motion)
    return IntegratedPlan(agent, lp, mission, motion_plan, profile, initial_region, pi)


# -- replanning ------------------------------------------------------------


def _shortest_region_path(env: Environment, source: str, target: str) -> Optional[list[str]]:
    """Shortest door-connected region path, ties broken lexicographically."""
    parents: dict[str, Optional[str]] = {source: None}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if v == target:
            path = [v]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])  # type: ignore[arg-type]
            return list(reversed(path))
        neighbours = sorted(v2 for (u, v2), doors in env.door_map.items() if u == v and doors)
        for v2 in neighbours:
            if v2 not in parents:
                parents[v2] = v
                queue.append(v2)
    return None


def _door_lost(real_env: Environment, regions: set[str], v: Optional[str], e: str) -> bool:
    """Whether the step ``e`` from last region ``v`` is a region change with no door."""
    return e in regions and v is not None and e != v and not real_env.doors_between(v, e)


def _splice(dfa: Dfa, regions: set[str], real_env: Environment) -> Dfa:
    """The plan with every doorless region change bridged by a real path.

    Each product edge ``cur → e`` whose regions lost all their doors becomes
    a fresh chain through the intermediate regions of the shortest real path
    from ``cur`` to ``e``.  An inserted region may collide with a region edge
    already leaving the same state, so the chains form an NFA that the
    subset construction determinises before minimisation.
    """
    names: dict[_Node, str] = {}

    def name(node: _Node) -> str:
        if node not in names:
            names[node] = f"p{len(names)}"
        return names[node]

    nfa: dict[tuple[str, str], set[str]] = {}
    paths: dict[tuple[str, str], list[str]] = {}
    chain: list[str] = []
    initial = name((dfa.initial, None))
    for node, e, nxt in _region_edges(dfa, regions):
        src, v = name(node), node[1]
        if _door_lost(real_env, regions, v, e):
            pair = (v, e)
            if pair not in paths:
                path = _shortest_region_path(real_env, *pair)
                if path is None:
                    raise ReplanInfeasible(pair)
                paths[pair] = path
            for mid in paths[pair][1:-1]:
                hop = f"c{len(chain)}"
                chain.append(hop)
                nfa.setdefault((src, mid), set()).add(hop)
                src = hop
        nfa.setdefault((src, e), set()).add(name(nxt))
    marked = {names[node] for node in names if node[0] in dfa.marked} | set(chain)
    return minimize(_determinize(nfa, {initial}, marked, dfa.alphabet))


def replan(lp: IntegratedPlan, nominal_motion: Dfa, real_env: Environment) -> IntegratedPlan:
    """Adapt an integrated plan to the real environment.

    The plan must be adequate for ``nominal_motion``, and the real
    environment must hold the nominal model's regions and doors and name no
    region the plan's labeling does not.  When the real environment still
    serves the motion plan, the plan and its motion plan are returned as
    they are, with the door profile recomputed against the real environment
    (which drops words through missing doors).  Otherwise each region change
    with no door left is bridged by the shortest intermediate region path of
    the real environment, spliced into the plan automaton itself: the plan
    is walked together with the agent's last region, each doorless edge
    becomes a chain through the bridge, and the result is determinised and
    minimised.  Mission event sequences are never altered, and every
    region change of the spliced plan has a real door.
    """
    if not (set(nominal_motion.states) <= set(real_env.regions) <= set(lp.labeling.regions)
            and set(nominal_motion.alphabet.events) <= set(real_env.doors)):
        raise InputError("real environment must share regions and doors with the nominal model")
    if _motion_gap(lp.motion_plan, nominal_motion) is not None:
        raise InvariantError("plan was not adequate for its nominal motion model")
    real = motion_dfa(real_env, lp.initial_region)
    if _motion_gap(lp.motion_plan, real) is None:
        return replace(lp, profile=door_profile(lp.motion_plan, real))
    new_dfa = _splice(lp.dfa, set(lp.labeling.regions), real_env)
    motion_plan = project(new_dfa, lp.labeling.regions)
    profile = door_profile(motion_plan, real)
    return IntegratedPlan(
        lp.agent, new_dfa, lp.mission, motion_plan, profile, lp.initial_region, lp.labeling
    )


# -- simulation -------------------------------------------------------------


@dataclass
class SimulationResult:
    trace: list[str]
    completed: bool
    deadlock: Optional[str] = None

    def text(self) -> str:
        return "\n".join(self.trace) + ("\n" if self.trace else "")


@dataclass
class _Walker:
    plan: IntegratedPlan
    state: str
    # _region_moves(plan), gathered again whenever the plan is replaced
    region_moves: dict[str, list[str]]
    region: Optional[str] = None
    consumed: list[str] = field(default_factory=list)
    believed: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)
    replans: int = 0


def simulate(
    plans: Sequence[IntegratedPlan],
    env: Environment,
    schedule: Sequence[tuple[int, str, str]] = (),
    max_steps: int = 200,
    stop_event: Optional[str] = None,
) -> SimulationResult:
    """Step the integrated plans against the environment and a door schedule.

    Region symbols are private to their agent; mission events shared by
    several plans fire jointly.  One action executes per step: pending
    region moves first (by agent order), then the least enabled mission
    event.  When a believed door turns out closed the agent replans
    against the effectively open environment and continues; each replan
    adds one trace line.  Trace lines read "step agent symbol kind".
    """
    doors_open: dict[str, bool] = {d: True for d in env.doors}
    timetable: dict[int, list[tuple[str, str]]] = {}
    for step_at, door, state in schedule:
        if door not in doors_open:
            raise InputError(f"schedule mentions unknown door {door!r}")
        if state not in ("open", "closed"):
            raise InputError(f"door state must be open or closed, got {state!r}")
        timetable.setdefault(step_at, []).append((door, state))

    if not plans:
        return SimulationResult([], True)
    walkers = [
        _Walker(lp, lp.dfa.initial, _region_moves(lp), believed=dict(env.door_map))
        for lp in plans
    ]
    nominal_motions = [motion_dfa(env, lp.initial_region) for lp in plans]
    mission_owners: dict[str, list[int]] = {}
    for i, lp in enumerate(plans):
        for e in lp.mission.alphabet.events:
            mission_owners.setdefault(e, []).append(i)
    trace: list[str] = []
    fired_stop = False

    effective = env  # the environment with only its open doors
    for step in range(max_steps):
        changes = timetable.get(step, ())
        for door, state in changes:
            doors_open[door] = state == "open"
        if changes:
            effective = env.without_doors({d for d, is_open in doors_open.items() if not is_open})
        if fired_stop:
            return SimulationResult(trace, True)

        # replan any agent whose believed doors for its next move are stale
        for i, w in enumerate(walkers):
            for v2 in w.region_moves.get(w.state, ()):
                if w.region is None or v2 == w.region:
                    continue
                believed = w.believed.get((w.region, v2), ())
                if any(not doors_open[d] for d in believed):
                    _replan_walker(w, step, effective, nominal_motions[i], trace)
                    break

        moves: list[tuple[int, str]] = []
        for i, w in enumerate(walkers):
            for v2 in w.region_moves.get(w.state, ()):
                if w.region is None or v2 == w.region:
                    moves.append((i, v2))
                elif effective.doors_between(w.region, v2):
                    moves.append((i, v2))
        if moves:
            i, v2 = moves[0]
            w = walkers[i]
            w.state = w.plan.dfa.transitions[(w.state, v2)]
            w.region = v2
            w.consumed.append(v2)
            trace.append(f"{step} {w.plan.agent} {v2} region")
            continue

        enabled: list[str] = []
        for event, owners in sorted(mission_owners.items()):
            if all(
                walkers[i].plan.dfa.transitions.get((walkers[i].state, event)) is not None
                for i in owners
            ):
                enabled.append(event)
        if not enabled:
            snapshot = "; ".join(
                f"{w.plan.agent}@{w.state}({w.region or '-'})" for w in walkers
            )
            return SimulationResult(trace, False, deadlock=snapshot)
        event = enabled[0]
        for i in mission_owners[event]:
            w = walkers[i]
            w.state = w.plan.dfa.transitions[(w.state, event)]
            w.consumed.append(event)
            trace.append(f"{step} {w.plan.agent} {event} mission")
        if stop_event is not None and event == stop_event:
            fired_stop = True
    return SimulationResult(trace, fired_stop or stop_event is None)


def _region_moves(lp: IntegratedPlan) -> dict[str, list[str]]:
    """The region symbols that each state of the plan moves on, in the
    plan's alphabet order, gathered in one pass over its transitions."""
    regions = set(lp.labeling.regions)
    return {q: [e for _, e, _ in out if e in regions] for q, out in _out_edges(lp.dfa).items()}


def _replan_walker(
    w: _Walker,
    step: int,
    effective: Environment,
    nominal_motion: Dfa,
    trace: list[str],
) -> None:
    new_plan = replan(w.plan, nominal_motion, effective)
    region_moves = _region_moves(new_plan)
    state = new_plan.dfa.initial
    for symbol in w.consumed:
        nxt = new_plan.dfa.transitions.get((state, symbol))
        while nxt is None:
            # fast-forward through regions spliced behind the agent
            inserted = region_moves.get(state)
            if not inserted:
                raise InvariantError("cannot resume the replanned plan")
            state = new_plan.dfa.transitions[(state, inserted[0])]
            nxt = new_plan.dfa.transitions.get((state, symbol))
        state = nxt
    w.plan = new_plan
    w.region_moves = region_moves
    w.state = state
    w.believed = dict(effective.door_map)
    w.replans += 1
    trace.append(f"{step} {new_plan.agent} {w.region or '-'} replan")


# -- environment & labeling file formats ------------------------------------


def environment_to_text(env: Environment) -> str:
    lines = [
        "regions: " + " ".join(env.regions),
        "doors: " + " ".join(env.doors),
        "adjacency:",
    ]
    for v, v2 in env.adjacency:
        lines.append(f"{v} {v2}")
    lines.append("doormap:")
    for v, v2 in env.adjacency:
        if (v, v2) in env.door_map:
            lines.append(f"{v} {v2} " + " ".join(env.door_map[(v, v2)]))
    lines.append("initial:")
    for agent in sorted(env.initial_regions):
        lines.append(f"{agent} {env.initial_regions[agent]}")
    return "\n".join(lines) + "\n"


def environment_from_text(text: str, source: str = "<string>") -> Environment:
    regions: list[str] = []
    doors: list[str] = []
    adjacency: list[tuple[str, str]] = []
    door_map: dict[tuple[str, str], tuple[str, ...]] = {}
    initial: dict[str, str] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lowered = line.lower()
        if lowered.startswith("regions:"):
            regions = line.split(":", 1)[1].split()
            continue
        if lowered.startswith("doors:"):
            doors = line.split(":", 1)[1].split()
            continue
        if lowered in ("adjacency:", "doormap:", "initial:"):
            section = lowered[:-1]
            continue
        parts = line.split()
        if section == "adjacency":
            if len(parts) != 2:
                raise InputError(f"{source}:{lineno}: adjacency wants 'from to'")
            adjacency.append((parts[0], parts[1]))
        elif section == "doormap":
            if len(parts) < 2:
                raise InputError(f"{source}:{lineno}: doormap wants 'from to doors...'")
            door_map[(parts[0], parts[1])] = tuple(parts[2:])
        elif section == "initial":
            if len(parts) != 2:
                raise InputError(f"{source}:{lineno}: initial wants 'agent region'")
            initial[parts[0]] = parts[1]
        else:
            raise InputError(f"{source}:{lineno}: unexpected line {line!r}")
    try:
        return Environment(tuple(regions), tuple(adjacency), tuple(doors), door_map, initial)
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from None


def labeling_from_text(text: str, regions: Sequence[str], source: str = "<string>") -> dict[str, LabelingMap]:
    """Parse 'agent event region...' lines into one labeling map per agent."""
    per_agent: dict[str, dict[str, frozenset[str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise InputError(f"{source}:{lineno}: labeling wants 'agent event region...'")
        agent, event, targets = parts[0], parts[1], parts[2:]
        per_agent.setdefault(agent, {})[event] = frozenset(targets)
    return {
        agent: LabelingMap(tuple(regions), mapping) for agent, mapping in per_agent.items()
    }


def labeling_to_text(labelings: Mapping[str, LabelingMap]) -> str:
    lines = []
    for agent in sorted(labelings):
        pi = labelings[agent]
        for event in sorted(pi.mapping):
            lines.append(f"{agent} {event} " + " ".join(pi.ordered(event)))
    return "\n".join(lines) + "\n"


def schedule_from_text(text: str, source: str = "<string>") -> list[tuple[int, str, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"{source}:{lineno}: schedule wants 'step door open|closed'")
        try:
            step = int(parts[0])
        except ValueError:
            raise InputError(f"{source}:{lineno}: step must be an integer") from None
        out.append((step, parts[1], parts[2]))
    return out
