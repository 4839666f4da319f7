"""Environment model, motion plans, mission-motion integration, and replanning.

Regions and doors live in a partitioned environment, which builds and
checks its door alphabet and each region's door moves once, when it is
constructed.  An agent's motion capabilities are the automaton whose states
are the regions its start reaches and whose events are doors, walked
breadth first from the start.  An integrated plan interleaves a mission
plan with the region moves its events need, in one numbered walk over
(mission state, region) nodes and the committed region moves between them.
Its region projection is the motion plan, the mission's region itinerary,
which must be executable in the motion model.

Two run semantics coexist deliberately.  Adequacy (is every region word
of a motion plan executable?) uses stutter-closed runs: an agent may dwell
in a region across steps, which the integrated plans produced here require
at cycle boundaries.  One walk over the motion plan with the agent's last
region decides it and names the first region change no door makes.  Door
realisation (which door words implement a region word?) uses strict runs:
every region change costs exactly one door event; :func:`door_profile`
builds those door words in one walk over (region, motion-plan state) pairs
whose successor lists go straight to the integer minimisation core.

Replanning adapts an integrated plan to a real environment whose doors may
differ from the nominal model, for which integration built the plan.  One
walk of the motion plan against the real door map decides its fate: a plan
the real environment still serves is kept as it is.  Otherwise replanning
works on the plan automaton, never on its words: the plan is walked
together with the agent's last region, every region change left without a
door is spliced into a chain through the shortest real detour, and the
subset construction's numbered subsets go straight to the integer
minimisation core, so its cost is polynomial in plan states × regions.

Integration and splicing keep the mission projection and the plan's
clauses by construction, a splice leaves no region change without a real
door, and replanning is only given plans adequate for their nominal model,
so none of these is re-checked; the tests assert each of them as a property.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator, Mapping, Optional, Sequence

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    InputError,
    InvariantError,
    _minimize_numbered,
    _numbered_dfa,
    _numbered_walk,
    _out_edges,
    _subset_walk,
    empty_dfa,
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
    """Partitioned environment: regions, adjacency, doors, and the door map.

    A door leads from a region to at most one region.  The door alphabet
    and each region's (door index, next region) moves in door order are
    built and checked once, here, for every motion model of the environment.
    """

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
        region_set, door_set, adjacency = set(self.regions), set(self.doors), set(self.adjacency)
        if door_set & region_set:
            raise InputError("door and region labels must be disjoint")
        for pair, doors in self.door_map.items():
            if pair not in adjacency:
                raise InputError(f"door map entry {pair} not in the adjacency relation")
            if not door_set.issuperset(doors):
                raise InputError(f"unknown door in map entry {pair}")
        for v, v2 in self.adjacency:
            if v not in region_set or v2 not in region_set:
                raise InputError(f"adjacency pair ({v},{v2}) references unknown regions")
        for agent, region in self.initial_regions.items():
            if region not in region_set:
                raise InputError(f"initial region {region!r} of {agent} unknown")
        leads: dict[tuple[str, str], str] = {}
        for (v, v2), doors in self.door_map.items():
            for d in doors:
                existing = leads.setdefault((v, d), v2)
                if existing != v2:
                    raise InputError(f"door {d!r} leads from {v!r} to both {existing!r} and {v2!r}")
        alphabet = EventAlphabet(self.doors, frozenset(self.doors))
        door_moves: dict[str, list[tuple[int, str]]] = {v: [] for v in self.regions}
        for (v, d), v2 in sorted(leads.items(), key=lambda kv: alphabet.index(kv[0][1])):
            door_moves[v].append((alphabet.index(d), v2))
        object.__setattr__(self, "_door_alphabet", alphabet)
        object.__setattr__(self, "_door_moves", door_moves)

    def doors_between(self, v: str, v2: str) -> tuple[str, ...]:
        return self.door_map.get((v, v2), ())

    def without_doors(self, closed: set[str]) -> "Environment":
        """This environment with the *closed* doors taken out of the door map
        and the door moves, its door alphabet kept.  Closing doors cannot make
        a valid environment invalid, so nothing is checked again."""
        doors = self._door_alphabet.events  # type: ignore[attr-defined]
        door_map = {pair: tuple(d for d in ds if d not in closed)
                    for pair, ds in self.door_map.items()}
        door_moves = {v: [(a, v2) for a, v2 in out if doors[a] not in closed]
                      for v, out in self._door_moves.items()}  # type: ignore[attr-defined]
        env = object.__new__(Environment)
        env.__dict__.update(self.__dict__, door_map=door_map, _door_moves=door_moves)
        return env


@dataclass(frozen=True)
class LabelingMap:
    """Per-agent map from mission events to the regions where they may occur."""

    regions: tuple[str, ...]
    mapping: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", {e: frozenset(r) for e, r in self.mapping.items()})
        regions = set(self.regions)
        for event, targets in self.mapping.items():
            if not targets:
                raise InputError(f"event {event!r} mapped to no region")
            if not targets <= regions:
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
    """Trim DFA over the environment's doors: one marked state per region
    that the initial region reaches, and moves that follow the door map.

    Every region is marked, so the trim automaton is the part reachable from
    the start: one numbered walk over each region's doors, which keeps the
    states in its order.
    """
    if initial_region not in env.regions:
        raise InputError(f"initial region {initial_region!r} not in the environment")
    moves, alphabet = env._door_moves, env._door_alphabet  # type: ignore[attr-defined]
    order, succ = _numbered_walk(initial_region, moves.__getitem__)
    return _numbered_dfa(order, succ, alphabet, [True] * len(order))


# -- integrated-plan construction -----------------------------------------


def _interleave(mission: Dfa, pi: LabelingMap, initial_region: str) -> Dfa:
    """Insert region symbols in front of the mission events they relocate.

    The construction tracks the agent's region through the mission
    automaton, in one numbered walk over (mission state, region) nodes,
    named ``q@v``, and committed-move nodes, named ``q@v>v2``.  A mission
    event doable in the current region keeps the region; otherwise a
    committed region move is inserted first.  Reaching the mission's
    initial state back in the initial region closes the loop through the
    plan's entry state, which re-asserts the initial region at every
    mission cycle.  Every node is marked, so the walk's automaton is trim
    as it stands.
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
    index = alphabet._index  # type: ignore[attr-defined]
    home = (mission.initial, initial_region)
    # per mission state and region: the (event index, next state) moves placeable there
    placed: dict[str, dict[str, list[tuple[int, str]]]] = {q: {} for q in mission.states}
    for q, out in _out_edges(mission, alphabet).items():
        for a, e, q2 in out:
            for v in pi.of(e):
                placed[q].setdefault(v, []).append((a, q2))

    def target(q2: str, v2: str) -> tuple[str, ...]:
        return () if (q2, v2) == home else (q2, v2)

    def step(node: tuple[str, ...]) -> list[tuple[int, tuple[str, ...]]]:
        if not node:  # the entry
            return [(index[initial_region], home)]
        q, v, *move = node
        by_region = placed[q]
        if move:  # committed to the region move[0]
            return [(a, target(q2, move[0])) for a, q2 in by_region[move[0]]]
        moves = sorted((index[v2], (q, v, v2)) for v2 in by_region if v2 != v)
        return moves + [(a, target(q2, v)) for a, q2 in by_region.get(v, ())]

    def name(node: tuple[str, ...]) -> str:
        if not node:
            return "entry"
        q, v, *move = node
        return f"{q}@{v}>{move[0]}" if move else f"{q}@{v}"

    order, succ = _numbered_walk((), step)
    names = list(map(name, order))
    if len(set(names)) != len(names):  # mission state and region names with "@" or ">" can clash
        raise InputError("duplicate state ids")
    return _numbered_dfa(names, succ, alphabet, [True] * len(order))


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


def _door_map(motion: Dfa) -> dict[tuple[str, str], str]:
    """A door of each region pair that a motion automaton moves between."""
    return {(v, v2): d for (v, d), v2 in motion.transitions.items()}


def _motion_gap(motion_plan: Dfa, v0: str, doors: Mapping[tuple[str, str], object]
                ) -> Optional[tuple[str, str]]:
    """The first region change of the motion plan that the door map cannot make.

    A pair without doors is missing from *doors* or maps to nothing.  The
    plan is walked breadth first together with the agent's last region,
    each state's moves in the plan's event order, up to the first gap;
    dwelling in the last region is always allowed.  The gap is ``(v0, e)``
    when the plan starts in another region e, ``(v, e)`` for the first move
    from v to e with no door, and None when every region word of the plan
    is a stutter-closed run of the doors from v0.
    """
    for (_, v), e, _ in _region_edges(motion_plan, set(motion_plan.alphabet.events)):
        if e != v and (e != v0 if v is None else not doors.get((v, e))):
            return (v0 if v is None else v, e)
    return None


def door_profile(motion_plan: Dfa, motion: Dfa) -> Dfa:
    """Door words whose strict runs trace a region word of the motion plan.

    The motion plan must lie within the stutter-closed runs of ``motion``:
    :func:`integrate` and :func:`replan` check that before they profile it,
    except on a spliced plan, which meets it by construction.

    One numbered walk over (region, motion-plan state) pairs hands their
    successor lists, every pair marked, to the integer core of
    :func:`cosynth.automata.minimize`; no pair is named.  :func:`replan`
    walks the real environment's own door moves the same way.
    """
    moves = {v: [(a, v2) for a, _, v2 in out] for v, out in _out_edges(motion).items()}
    return _profile(motion_plan, motion.initial, moves, motion.alphabet)


def _profile(motion_plan: Dfa, v0: str, moves: Mapping[str, list[tuple[int, str]]],
             doors: EventAlphabet) -> Dfa:
    """:func:`door_profile` from v0 over door moves as an :class:`Environment` keeps them."""
    p0 = motion_plan.transitions.get((motion_plan.initial, v0))
    if p0 is None or p0 not in motion_plan.marked:
        return empty_dfa(doors)
    plan_moves = motion_plan.transitions
    plan_marked = motion_plan.marked

    def step(pair: tuple[str, str]) -> list[tuple[int, tuple[str, str]]]:
        v, p = pair
        return [(a, (v2, p2)) for a, v2 in moves.get(v, ())
                if (p2 := plan_moves.get((p, v2))) in plan_marked]

    order, succ = _numbered_walk((v0, p0), step)
    return _minimize_numbered(succ, [True] * len(order), doors)


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
    gap = _motion_gap(motion_plan, motion.initial, _door_map(motion))
    if gap is not None:
        raise MotionInfeasible(gap)
    profile = door_profile(motion_plan, motion)
    return IntegratedPlan(agent, lp, mission, motion_plan, profile, initial_region, pi)


def integrate_agent(mission: Dfa, labelings: Mapping[str, LabelingMap], env: Environment,
                    agent: str) -> IntegratedPlan:
    """:func:`integrate` for *agent*, with its labeling and its initial region
    in *env*, on the motion model of the environment from there."""
    if agent not in labelings:
        raise InputError(f"labeling file lacks agent {agent!r}")
    if agent not in env.initial_regions:
        raise InputError(f"environment lacks an initial region for {agent!r}")
    v0 = env.initial_regions[agent]
    return integrate(mission, labelings[agent], v0, motion_dfa(env, v0), agent=agent)


# -- replanning ------------------------------------------------------------


def _open_successors(env: Environment) -> dict[str, list[str]]:
    """The regions that each region has a door to, sorted by name."""
    successors: dict[str, list[str]] = {}
    for (v, v2), doors in env.door_map.items():
        if doors:
            successors.setdefault(v, []).append(v2)
    for out in successors.values():
        out.sort()
    return successors


def _shortest_region_path(successors: Mapping[str, list[str]], source: str,
                          target: str) -> Optional[list[str]]:
    """Shortest door-connected region path over :func:`_open_successors`,
    ties broken lexicographically."""
    parents: dict[str, Optional[str]] = {source: None}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if v == target:
            path = [v]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])  # type: ignore[arg-type]
            return list(reversed(path))
        for v2 in successors.get(v, ()):
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
    a fresh chain of integer hops through the intermediate regions of the
    shortest real path from ``cur`` to ``e``.  An inserted region may
    collide with a region edge already leaving the same node, so the
    (plan state, last region) nodes of :func:`_region_edges` and the hops
    form an NFA, with no empty move, whose subsets, numbered by the subset
    construction, go straight to the integer core of
    :func:`cosynth.automata.minimize`.  The NFA's accepting states, every
    hop and every node whose plan state is marked, are gathered as it is
    built, so each subset is marked by one disjointness test.
    """
    successors = _open_successors(real_env)
    nfa: dict[tuple[_Node | int, str], set[_Node | int]] = {}
    paths: dict[tuple[str, str], list[str]] = {}
    hops = 0
    start: _Node = (dfa.initial, None)
    accepting: set[_Node | int] = {start} if dfa.initial in dfa.marked else set()
    for node, e, nxt in _region_edges(dfa, regions):
        src: _Node | int = node
        if _door_lost(real_env, regions, node[1], e):
            pair = (node[1], e)
            if pair not in paths:
                path = _shortest_region_path(successors, *pair)
                if path is None:
                    raise ReplanInfeasible(pair)
                paths[pair] = path
            for mid in paths[pair][1:-1]:
                nfa.setdefault((src, mid), set()).add(hops)
                accepting.add(hops)
                src, hops = hops, hops + 1
        nfa.setdefault((src, e), set()).add(nxt)
        if nxt[0] in dfa.marked:
            accepting.add(nxt)
    order, succ = _subset_walk(nfa, {start}, dfa.alphabet)
    return _minimize_numbered(succ, [not s.isdisjoint(accepting) for s in order], dfa.alphabet)


def replan(lp: IntegratedPlan, nominal_motion: Dfa, real_env: Environment) -> IntegratedPlan:
    """Adapt an integrated plan to the real environment.

    The real environment must hold the nominal model's regions and doors and
    the plan's initial region, and name no region the plan's labeling does
    not; the nominal model serves that check alone.  When one walk finds
    that the real door map still serves the motion plan, the plan and its
    motion plan are returned as they are, with the door profile recomputed
    over the real door moves (which drops words through missing doors).
    Otherwise each region change with no door left is bridged by the
    shortest intermediate region path of the real environment, spliced into
    the plan automaton itself: the plan is walked together with the agent's
    last region, each doorless edge becomes a chain through the bridge, and
    the numbered subsets of the result are minimised.  Mission event
    sequences are never altered, and every region change of the spliced
    plan has a real door.
    """
    if not (set(nominal_motion.states) <= set(real_env.regions) <= set(lp.labeling.regions)
            and set(nominal_motion.alphabet.events) <= set(real_env.doors)):
        raise InputError("real environment must share regions and doors with the nominal model")
    v0 = lp.initial_region
    if v0 not in real_env.regions:
        raise InputError(f"initial region {v0!r} not in the environment")
    moves, doors = real_env._door_moves, real_env._door_alphabet  # type: ignore[attr-defined]
    if _motion_gap(lp.motion_plan, v0, real_env.door_map) is None:
        return IntegratedPlan(lp.agent, lp.dfa, lp.mission, lp.motion_plan,
                              _profile(lp.motion_plan, v0, moves, doors), v0, lp.labeling)
    new_dfa = _splice(lp.dfa, set(lp.labeling.regions), real_env)
    motion_plan = project(new_dfa, lp.labeling.regions)
    profile = _profile(motion_plan, v0, moves, doors)
    return IntegratedPlan(lp.agent, new_dfa, lp.mission, motion_plan, profile, v0, lp.labeling)


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
    # _plan_moves(plan), gathered again whenever the plan is replaced
    region_moves: dict[str, list[str]]
    mission_moves: dict[str, list[str]]
    region: Optional[str] = None
    consumed: list[str] = field(default_factory=list)
    believed: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)


def simulate(
    plans: Sequence[IntegratedPlan],
    env: Environment,
    schedule: Sequence[tuple[int, str, str]] = (),
    max_steps: Optional[int] = None,
    stop_event: Optional[str] = None,
) -> SimulationResult:
    """Step the integrated plans against the environment and a door schedule.

    Region symbols are private to their agent; mission events shared by
    several plans fire jointly.  One action executes per step: pending
    region moves first (by agent order), then the least mission event
    that every plan owning it moves on.  When a believed door turns out
    closed the agent replans against the effectively open environment and
    continues; each replan adds one trace line.  Trace lines read "step
    agent symbol kind".

    The run ends after the stop event or at a deadlock.  Without
    *max_steps* it also ends when the joint configuration (each agent's
    plan state and region) repeats with no door change or replan since its
    first visit: the run is deterministic, so it would cycle for ever, and
    it is complete only when there is no stop event.  With *max_steps* it
    ends after that many steps instead.
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
        _Walker(lp, lp.dfa.initial, *_plan_moves(lp), believed=dict(env.door_map))
        for lp in plans
    ]
    for lp in plans:  # checked up front, though only a walker that replans builds its motion model
        if lp.initial_region not in env.regions:
            raise InputError(f"initial region {lp.initial_region!r} not in the environment")
    mission_owners: dict[str, list[int]] = {}
    for i, lp in enumerate(plans):
        for e in lp.mission.alphabet.events:
            mission_owners.setdefault(e, []).append(i)
    trace: list[str] = []
    fired_stop = False

    effective = env  # the environment with only its open doors
    last_change = max(timetable, default=0)
    visited: set[tuple] = set()  # joint configurations since the last change or replan
    for step in count() if max_steps is None else range(max_steps):
        changes = timetable.get(step, ())
        for door, state in changes:
            doors_open[door] = state == "open"
        if changes:
            effective = env.without_doors({d for d, is_open in doors_open.items() if not is_open})
        if fired_stop:
            return SimulationResult(trace, True)
        if max_steps is None and step >= last_change:
            joint = tuple([(w.state, w.region) for w in walkers])
            if joint in visited:
                break
            visited.add(joint)

        # replan any agent whose believed doors for its next move are stale
        for w in walkers:
            for v2 in w.region_moves.get(w.state, ()):
                if w.region is None or v2 == w.region:
                    continue
                believed = w.believed.get((w.region, v2), ())
                if any(not doors_open[d] for d in believed):
                    nominal = motion_dfa(env, w.plan.initial_region)
                    _replan_walker(w, step, effective, nominal, trace)
                    visited.clear()
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

        # a mission event is enabled when every owner moves on it
        offered: dict[str, int] = {}
        for w in walkers:
            for e in w.mission_moves.get(w.state, ()):
                offered[e] = offered.get(e, 0) + 1
        enabled = [e for e, n in offered.items() if n == len(mission_owners[e])]
        if not enabled:
            snapshot = "; ".join(
                f"{w.plan.agent}@{w.state}({w.region or '-'})" for w in walkers
            )
            return SimulationResult(trace, False, deadlock=snapshot)
        event = min(enabled)
        for i in mission_owners[event]:
            w = walkers[i]
            w.state = w.plan.dfa.transitions[(w.state, event)]
            w.consumed.append(event)
            trace.append(f"{step} {w.plan.agent} {event} mission")
        if stop_event is not None and event == stop_event:
            fired_stop = True
    return SimulationResult(trace, fired_stop or stop_event is None)


def _plan_moves(lp: IntegratedPlan) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """The region symbols and the mission events that each state of the
    plan moves on, in the plan's alphabet order, gathered in one pass over
    its transitions."""
    regions = set(lp.labeling.regions)
    mission = lp.mission.alphabet
    region_moves: dict[str, list[str]] = {}
    mission_moves: dict[str, list[str]] = {}
    for q, out in _out_edges(lp.dfa).items():
        region_moves[q] = [e for _, e, _ in out if e in regions]
        mission_moves[q] = [e for _, e, _ in out if e in mission]
    return region_moves, mission_moves


def _replan_walker(
    w: _Walker,
    step: int,
    effective: Environment,
    nominal_motion: Dfa,
    trace: list[str],
) -> None:
    new_plan = replan(w.plan, nominal_motion, effective)
    region_moves, mission_moves = _plan_moves(new_plan)
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
    w.mission_moves = mission_moves
    w.state = state
    w.believed = dict(effective.door_map)
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
    for v, v2 in dict.fromkeys(env.adjacency):  # a repeated pair's doors once
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
    given: dict[object, int] = {}  # the line giving each line or pair that may be given once

    def once(key: object, lineno: int, what: str) -> None:
        first = given.setdefault(key, lineno)
        if first != lineno:
            raise InputError(f"{source}:{lineno}: {what} already given on line {first}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lowered = line.lower()
        if lowered.startswith("regions:"):
            once("regions", lineno, "'regions'")
            regions = line.split(":", 1)[1].split()
            continue
        if lowered.startswith("doors:"):
            once("doors", lineno, "'doors'")
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
            once(("doormap", parts[0], parts[1]), lineno, f"doormap of {parts[0]!r} {parts[1]!r}")
            door_map[(parts[0], parts[1])] = tuple(parts[2:])
        elif section == "initial":
            if len(parts) != 2:
                raise InputError(f"{source}:{lineno}: initial wants 'agent region'")
            once(("initial", parts[0]), lineno, f"initial region of agent {parts[0]!r}")
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
    given: dict[tuple[str, str], int] = {}  # per (agent, event): the line giving its regions
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise InputError(f"{source}:{lineno}: labeling wants 'agent event region...'")
        agent, event, targets = parts[0], parts[1], parts[2:]
        first = given.setdefault((agent, event), lineno)
        if first != lineno:
            raise InputError(f"{source}:{lineno}: regions of event {event!r} of agent {agent!r}"
                             f" already given on line {first}")
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
