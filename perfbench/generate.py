"""Instance generator for the benchmark workloads.

``casestudy`` locates the bundled fixture files.  ``escorts`` and ``ring`` are
written into a directory from their size parameters and a seed; the same
parameters and seed always give byte-identical files.

escorts(pairs)
    A fire robot with the ``Lspe1`` shape waits for ``pairs`` double doors,
    each operated by an escort pair running the ``Lspe2`` shape in the case
    study's three rooms, with its door outage and schedule.  At one pair the
    files describe the bundled case study itself.

ring(rooms, agents, cut_rooms)
    ``agents`` patrols walk a ring of ``rooms`` rooms (two doors per
    adjacency), choosing one of two events in every room.  In ``cut_rooms``
    rooms per patrol the plant lets an uncontrollable alarm follow one of the
    two choices, so supervisor synthesis must remove that choice.  The real
    environment loses both doors of one adjacency, and the schedule closes one
    more door while the simulation runs.

``python3 perfbench/run.py --check-generator`` confirms that one escort pair
reproduces the bundled case study.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "src" / "cosynth" / "fixtures"

# parameters of the benchmark workloads (the README documents them)
ESCORT_PAIRS = 2
RING_ROOMS = 10
RING_AGENTS = 2
RING_CUT_ROOMS = 1


@dataclass(frozen=True)
class InstanceFiles:
    """Input files of one pipeline run."""

    config: Path
    real_env: Path
    schedule: Path


def casestudy() -> InstanceFiles:
    return InstanceFiles(
        FIXTURES / "casestudy.cfg", FIXTURES / "real_no_d3.env", FIXTURES / "d3_closed.sched"
    )


def build(workload: str, seed: int, outdir: Path) -> InstanceFiles:
    """Input files of a benchmark workload, generated into *outdir* if needed."""
    if workload == "casestudy":
        return casestudy()
    if workload == "escorts":
        return escorts(outdir, ESCORT_PAIRS, seed)
    if workload == "ring":
        return ring(outdir, RING_ROOMS, RING_AGENTS, RING_CUT_ROOMS, seed)
    raise ValueError(f"unknown workload {workload!r}")


# -- file writers ------------------------------------------------------------


def aut_text(n_states: int, events: list[str], controllable: list[str],
             transitions: list[tuple[int, str, int]]) -> str:
    """An all-marked automaton over states 0..n-1 in the ``.aut`` format."""
    states = " ".join(str(i) for i in range(n_states))
    lines = [
        f"states: {states}",
        "alphabet: " + " ".join(events),
        "controllable: " + " ".join(e for e in events if e in set(controllable)),
        "initial: 0",
        f"marked: {states}",
        "transitions:",
    ]
    lines += [f"{src} {event} {dst}" for src, event, dst in transitions]
    return "\n".join(lines) + "\n"


def env_text(regions: list[str], doors: list[str],
             door_map: dict[tuple[str, str], list[str]], initial: dict[str, str]) -> str:
    lines = ["regions: " + " ".join(regions), "doors: " + " ".join(doors), "adjacency:"]
    lines += [f"{a} {b}" for a, b in door_map]
    lines.append("doormap:")
    lines += [f"{a} {b} " + " ".join(ds) for (a, b), ds in door_map.items() if ds]
    lines.append("initial:")
    lines += [f"{agent} {region}" for agent, region in initial.items()]
    return "\n".join(lines) + "\n"


def config_text(agents: list[str], missions: list[str], alphabets: dict[str, list[str]],
                uncontrollable: dict[str, list[str]], plants: dict[str, str]) -> str:
    lines = [
        "agents: " + " ".join(agents),
        "mission: " + " ".join(missions),
        "environment: nominal.env",
        "labeling: labels.pi",
    ]
    for agent in agents:
        lines.append(f"alphabet {agent}: " + " ".join(sorted(alphabets[agent])))
        lines.append(f"uncontrollable {agent}: " + " ".join(sorted(uncontrollable[agent])))
        if agent in plants:
            lines.append(f"plant {agent}: {plants[agent]}")
    return "\n".join(lines) + "\n"


def _write(outdir: Path, files: dict[str, str]) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (outdir / name).write_text(text, encoding="utf-8")


# -- escorts -------------------------------------------------------------------

# Lspe2 of the case study with its pair-specific events as placeholders:
# A/B are the two escorts, O/C the Open/Close commands, DO/DC the door events.
_LSPE2 = [
    (0, "hA", 1), (0, "hB", 2), (1, "GAinR1", 3), (1, "GAinR3", 4), (1, "hB", 5),
    (2, "GBinR1", 6), (2, "GBinR3", 7), (2, "hA", 5), (3, "hB", 8), (4, "hB", 9),
    (5, "GAinR1", 8), (5, "GAinR3", 9), (5, "GBinR1", 10), (5, "GBinR3", 11),
    (6, "hA", 10), (7, "hA", 11), (8, "GBinR3", 12), (9, "GBinR1", 13),
    (10, "GAinR3", 13), (11, "GAinR1", 12), (12, "O", 14), (13, "O", 15),
    (14, "DO", 16), (15, "DO", 17), (16, "G2inR1", 18), (17, "G2inR1", 19),
    (18, "C", 20), (19, "C", 21), (20, "DC", 22), (21, "DC", 23), (22, "GBinR1", 24),
    (23, "GAinR1", 24), (24, "r", 0),
]


def _pair_events(k: int) -> dict[str, str]:
    """Event names of escort pair k (1-based); pair 1 keeps the case study's."""
    a, b = (1, 3) if k == 1 else (2 * k, 2 * k + 1)
    tag = "" if k == 1 else str(k)
    return {
        "hA": f"h{a}", "hB": f"h{b}", "GAinR1": f"G{a}inR1", "GAinR3": f"G{a}inR3",
        "GBinR1": f"G{b}inR1", "GBinR3": f"G{b}inR3", "O": f"Open{tag}",
        "C": f"Close{tag}", "DO": f"D{k}open", "DC": f"D{k}close",
        "G2inR1": "G2inR1", "r": "r", "A": f"agent{a}", "B": f"agent{b}",
    }


def escort_pairs(pairs: int) -> list[tuple[str, str]]:
    """The (first, second) escort agent names of every pair."""
    return [(_pair_events(k)["A"], _pair_events(k)["B"]) for k in range(1, pairs + 1)]


def escorts(outdir: Path, pairs: int, seed: "int | None") -> InstanceFiles:
    """Write an escorts instance; the seed names the rooms (``seed=None``: R1 R2 R3)."""
    if pairs < 1:
        raise ValueError("escorts needs at least one pair")
    prefix = "R" if seed is None else room_prefix(seed)
    r1, r2, r3 = (f"{prefix}{i}" for i in (1, 2, 3))
    doors_open = [f"D{k}open" for k in range(1, pairs + 1)]
    fire = "agent2"
    lspe1 = ["h2", "F"] + doors_open + ["G2inR1", "r"]
    files = {
        "Lspe1.aut": aut_text(
            len(lspe1), sorted(set(lspe1)), ["F", "G2inR1", "r"],
            [(i, e, (i + 1) % len(lspe1)) for i, e in enumerate(lspe1)],
        )
    }
    missions = ["Lspe1.aut"]
    alphabets = {fire: sorted(set(lspe1))}
    uncontrollable = {fire: ["h2"] + doors_open}
    labels = [f"{fire} {e} {r2}" for e in doors_open] + [
        f"{fire} F {r2}", f"{fire} G2inR1 {r1}", f"{fire} h2 {r1}", f"{fire} r {r1}"
    ]
    agents = []
    for k in range(1, pairs + 1):
        ev = _pair_events(k)
        name = "Lspe2.aut" if k == 1 else f"Lspe2_{k}.aut"
        events = sorted({ev[e] for _, e, _ in _LSPE2})
        uc = {ev["hA"], ev["hB"]}
        files[name] = aut_text(
            25, events, [e for e in events if e not in uc],
            [(src, ev[e], dst) for src, e, dst in _LSPE2],
        )
        missions.append(name)
        a, b = ev["A"], ev["B"]
        shared = [ev["O"], ev["C"], ev["DO"], ev["DC"], "G2inR1", "r"]
        alphabets[a] = shared + [ev["hA"], ev["GAinR1"], ev["GAinR3"]]
        alphabets[b] = shared + [ev["hB"], ev["GBinR1"], ev["GBinR3"]]
        uncontrollable[a] = [ev["hA"], "G2inR1"]
        uncontrollable[b] = [ev["hB"], "G2inR1"]
        # escort A works the door from room 1, escort B from room 3
        for agent, home, h, g1, g3 in ((a, r1, ev["hA"], ev["GAinR1"], ev["GAinR3"]),
                                       (b, r3, ev["hB"], ev["GBinR1"], ev["GBinR3"])):
            labels += [f"{agent} {e} {home}" for e in (ev["C"], ev["DC"], ev["DO"])]
            labels += [f"{agent} {g1} {r1}", f"{agent} {g3} {r3}", f"{agent} G2inR1 {home}",
                       f"{agent} {ev['O']} {home}", f"{agent} {h} {r1}", f"{agent} r {r1}"]
        agents += [a, b]
    agents = sorted(agents + [fire], key=lambda n: int(n[len("agent"):]))
    files["casestudy.cfg"] = config_text(agents, missions, alphabets, uncontrollable, {})
    files["labels.pi"] = "\n".join(sorted(labels, key=_label_key)) + "\n"
    initial = {agent: r1 for agent in agents}
    doors = ["D1l", "D1r", "D2", "D3"]
    nominal = {(r1, r2): ["D1r", "D2"], (r2, r1): ["D1r"],
               (r1, r3): ["D1l", "D3"], (r3, r1): ["D1l", "D3"]}
    real = {(r1, r2): ["D1r", "D2"], (r2, r1): ["D1r"], (r1, r3): ["D1l"], (r3, r1): ["D1l"]}
    files["nominal.env"] = env_text([r1, r2, r3], doors, nominal, initial)
    files["real_no_d3.env"] = env_text([r1, r2, r3], doors, real, initial)
    files["d3_closed.sched"] = "8 D3 closed\n"
    _write(outdir, files)
    return InstanceFiles(outdir / "casestudy.cfg", outdir / "real_no_d3.env",
                         outdir / "d3_closed.sched")


# Room names a seed picks from; every name keeps the rooms' relative order, so
# the seed changes the inputs without changing the work done on them.
ROOM_WORDS = ("R", "Room", "Hall", "Bay", "Ward", "Lab", "Deck", "Wing")


def room_prefix(seed: int) -> str:
    return ROOM_WORDS[random.Random(seed).randrange(len(ROOM_WORDS))]


def _label_key(line: str) -> tuple[int, str]:
    agent, rest = line.split(" ", 1)
    return int(agent[len("agent"):]), rest


# -- ring ------------------------------------------------------------------------

# Rooms are numbered along the patrol route from the home room 0.  Replanning
# work grows with the number of plan branches before the outage, and learning
# work depends on the order of the event names along the route, so the layout
# is the same for every seed; the seed only names the rooms and picks which of
# two doors closes.
OUTAGE_AT = 2  # both doors between rooms 2 and 3 are missing


def ring(outdir: Path, rooms: int, agents: int, cut_rooms: int, seed: int) -> InstanceFiles:
    """Write a ring instance; the alarmed choices sit in the last rooms of the route."""
    if rooms < OUTAGE_AT + 3 or agents < 1 or not 0 <= cut_rooms < rooms - OUTAGE_AT:
        raise ValueError("ring needs 5 rooms, an agent, and cut rooms after the outage")
    prefix = room_prefix(seed)
    closed_door = random.Random(seed).choice("AB") + str(OUTAGE_AT + 1)

    def room(j: int) -> str:
        return f"{prefix}{j}"

    regions = [room(j) for j in range(rooms)]
    doors = [f"{d}{j}" for j in range(rooms) for d in "AB"]
    names = [f"patrol{i}" for i in range(1, agents + 1)]
    files: dict[str, str] = {}
    alphabets, uncontrollable, plants, missions, labels = {}, {}, {}, [], []
    for i, agent in enumerate(names, start=1):
        x = [f"p{i}x{j}" for j in range(rooms)]
        y = [f"p{i}y{j}" for j in range(rooms)]
        alarm = f"p{i}alarm"
        events = x + y + [alarm, "r"]
        controllable = [e for e in events if e != alarm]
        spec = [(j, e[j], j + 1) for j in range(rooms) for e in (x, y)]
        spec.append((rooms, "r", 0))
        files[f"mission_{agent}.aut"] = aut_text(rooms + 1, events, controllable, spec)
        missions.append(f"mission_{agent}.aut")
        # plant: after an alarmed x-choice the patrol is in a copy of the next
        # route position's state, from which the alarm may fire
        copy = {j: rooms + 1 + n for n, j in enumerate(range(rooms - cut_rooms, rooms))}
        sink = rooms + 1 + cut_rooms
        plant = []
        for j in range(rooms):
            plant.append((j, x[j], copy.get(j, j + 1)))
            plant.append((j, y[j], j + 1))
        plant.append((rooms, "r", 0))
        for j, q in copy.items():
            plant += [(q, e, d) for s, e, d in plant if s == j + 1]
            plant.append((q, alarm, sink))
        files[f"plant_{agent}.aut"] = aut_text(sink + 1, events, controllable, plant)
        plants[agent] = f"plant_{agent}.aut"
        alphabets[agent] = events
        uncontrollable[agent] = [alarm]
        labels += [f"{agent} {e[j]} {room(j)}" for j in range(rooms) for e in (x, y)]
        labels += [f"{agent} {alarm} {room(0)}", f"{agent} r {room(0)}"]
    files["ring.cfg"] = config_text(names, missions, alphabets, uncontrollable, plants)
    files["labels.pi"] = "\n".join(labels) + "\n"
    nominal: dict[tuple[str, str], list[str]] = {}
    for j in range(rooms):
        a, b = regions[j], regions[(j + 1) % rooms]
        nominal[(a, b)] = [f"A{j}", f"B{j}"]
        nominal[(b, a)] = [f"A{j}", f"B{j}"]
    real = dict(nominal)
    lost = (room(OUTAGE_AT), room(OUTAGE_AT + 1))
    real[lost] = []
    real[lost[::-1]] = []
    initial = {agent: room(0) for agent in names}
    files["nominal.env"] = env_text(regions, doors, nominal, initial)
    files["real.env"] = env_text(regions, doors, real, initial)
    # The first patrol reaches the outage at step 2*OUTAGE_AT+agents-1 and then
    # goes the long way round, so a door it crosses at the end of that detour,
    # closed one step later, is met by every patrol after it closed.
    files["doors.sched"] = f"{2 * OUTAGE_AT + agents} {closed_door} closed\n"
    _write(outdir, files)
    return InstanceFiles(outdir / "ring.cfg", outdir / "real.env", outdir / "doors.sched")
