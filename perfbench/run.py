#!/usr/bin/env python3
"""The repository's benchmark: the cosynth pipeline on three workloads.

    python3 perfbench/run.py --workload casestudy|escorts|ring --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady [--workload W] [--runs 10] [--first-seed 1] [--seconds S]
    python3 perfbench/run.py --check-generator

One process with one thread runs a closed loop: one client issues one
operation at a time, and each iteration times, in this order,

    pipeline  one ``run_pipeline`` call (the ``cosynth pipeline`` command),
    verify    ``verify(final plans, mission)`` (``cosynth verify``),
    replan    one ``replan`` call per agent against the real environment,
              repeated ``REPLAN_REPEATS`` times in one timed batch.

Op times are given at a reference speed measured by a probe that runs inside
the ops (see ``SpeedProbe`` and the README).  Every op's outputs go through
the oracles of ``oracles.py`` and a determinism check; an op whose check
fails counts as failed.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.

``--steady`` runs each workload ``--runs`` times with consecutive seeds in
subprocesses and prints every end-to-end metric's quartile spread next to
its bound in ``BENCHMARK.json``.  ``--check-generator`` checks that one
escort pair reproduces the bundled case study.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import generate
import oracles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("casestudy", "escorts", "ring")
SETUP_REPEATS = 7
# The replan op repeats the replanning of all agents this many times in one
# timed batch and reports the time per repeat: on casestudy and escorts one
# repeat takes 1–2 ms, too short to time alone against the speed probe.
REPLAN_REPEATS = {"casestudy": 100, "escorts": 100, "ring": 1}
# The speed probe: PROBE_STEPS steps of a fixed loop every PROBE_PERIOD_S.
# Op times are reported at the speed at which one probe takes
# REFERENCE_PROBE_S, about one probe's time on an Intel Xeon 2.0 GHz virtual
# machine with Python 3.11 (see README).
PROBE_STEPS = 1000
PROBE_PERIOD_S = 0.02
REFERENCE_PROBE_S = 0.0003
STOP_EVENT = "r"
clock = time.perf_counter


def import_program():
    """Import ``cosynth`` from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "cosynth"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {package}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import cosynth

    if Path(cosynth.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: cosynth imported from {cosynth.__file__}, not {package}")
    return cosynth


# -- set-up ------------------------------------------------------------------------


@dataclass
class Setup:
    files: generate.InstanceFiles
    config: object
    nominal: object
    real: object
    labelings: dict
    schedule: list


def setup(workload: str, seed: int, outdir: Path) -> Setup:
    """What a user does before the first op: import, write or find inputs, parse them."""
    import_program()
    from cosynth.motion import environment_from_text, labeling_from_text, schedule_from_text
    from cosynth.pipeline import PipelineConfig

    files = generate.build(workload, seed, outdir)
    config = PipelineConfig.load(files.config)
    env_path = Path(config.environment_path)
    nominal = environment_from_text(env_path.read_text(encoding="utf-8"), source=str(env_path))
    real = environment_from_text(files.real_env.read_text(encoding="utf-8"),
                                 source=str(files.real_env))
    labelings = labeling_from_text(Path(config.labeling_path).read_text(encoding="utf-8"),
                                   nominal.regions, source=str(config.labeling_path))
    schedule = schedule_from_text(files.schedule.read_text(encoding="utf-8"),
                                  source=str(files.schedule))
    return Setup(files, config, nominal, real, labelings, schedule)


def setup_child(workload: str, seed: int, outdir: Path) -> None:
    with SpeedProbe() as probe:
        started = clock()
        setup(workload, seed, outdir)
        ended = clock()
    for _ in range(5):
        probe.sample()
    print(json.dumps({"setup_s": probe.at_reference_speed(started, ended)}))


def measure_setup(workload: str, seed: int, rundir: Path) -> float:
    """Median set-up time over fresh processes (each imports ``cosynth`` anew)."""
    times = []
    for i in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed), "--dir", str(rundir / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


# -- the three ops and their checks ----------------------------------------------------


class PassRecorder:
    """Keeps the plans and verdict of every verification pass for oracle (a).

    It replaces ``verify`` in the namespace of ``cosynth.verification``, where
    the refinement loop looks it up; the cost is one extra call per pass.
    """

    def __init__(self) -> None:
        from cosynth import verification

        self.passes: list[tuple[list, object]] = []
        self._namespace = vars(verification)
        self._original = self._namespace["verify"]
        original = self._original

        def verify(modules, *args, **kwargs):
            result = original(modules, *args, **kwargs)
            self.passes.append((list(modules), result[0]))
            return result

        # look like the original, so that the traced run wraps it in its turn
        verify.__module__ = original.__module__
        verify.__name__ = original.__name__
        self._namespace["verify"] = verify

    def close(self) -> None:
        self._namespace["verify"] = self._original


def nominal_plans(s: Setup, report) -> list:
    """The integrated plans of a pipeline op, before it replanned them."""
    from cosynth.motion import IntegratedPlan

    plans = []
    for agent, mission_plan in zip(s.config.agents, report.mission_plans):
        n = agent.name
        plans.append(IntegratedPlan(
            n, report.artifacts[f"{n}_integrated.aut"], mission_plan,
            report.artifacts[f"{n}_motion.aut"], report.artifacts[f"{n}_profile.aut"],
            s.nominal.initial_regions[n], s.labelings[n],
        ))
    return plans


class SpeedProbe:
    """Samples the machine's speed while the ops run.

    Every ``PROBE_PERIOD_S`` of wall time a SIGALRM handler times one pass of a
    fixed pure-Python loop (dict, tuple and str work, like the program's), in
    the middle of whatever op is running.  An op's time is reported at the
    reference speed: its wall time minus the probes inside it, times
    ``REFERENCE_PROBE_S`` over the mean probe time during the op.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def sample(self, *_signal) -> None:
        started = clock()
        table = {}
        for i in range(PROBE_STEPS):
            table[(i % 1000, str(i % 37))] = i
        self.samples.append((started, clock() - started))

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at_reference_speed(self, started: float, ended: float) -> float:
        inside = [d for t, d in self.samples if started <= t <= ended]
        own = ended - started - sum(inside)
        if len(inside) < 5:  # a short op takes the probes nearest to it
            while len(self.samples) < 5:
                self.sample()
            inside = [d for t, d in sorted(
                self.samples, key=lambda s: max(started - s[0], s[0] - ended))[:5]]
        return own * REFERENCE_PROBE_S / (sum(inside) / len(inside))


@dataclass
class OpResult:
    seconds: Optional[float] = None  # at the reference speed
    value: object = None
    problems: list[str] = field(default_factory=list)


def timed(fn, *args, probe: Optional[SpeedProbe] = None) -> OpResult:
    """Time one op from a collected heap, so that garbage of earlier ops is
    not swept inside it; with a probe, at the reference speed."""
    gc.collect()
    started = clock()
    try:
        value = fn(*args)
    except Exception:  # an op that raises counts as failed; the run goes on
        return OpResult(problems=[traceback.format_exc()])
    ended = clock()
    if probe is None:
        return OpResult(ended - started, value)
    return OpResult(probe.at_reference_speed(started, ended), value)


class Checker:
    """Runs the oracles on each op's outputs."""

    def __init__(self, workload: str, seed: int, s: Setup, rundir: Path):
        self.workload = workload
        self.inst = oracles.load_instance(s.files.config, s.files.real_env, s.files.schedule)
        self.mission = oracles.Mission(self.inst.components)
        self.regions = frozenset(self.inst.nominal.regions)
        self.rundir = rundir
        self.digest: Optional[str] = None
        self.stored = WORK / "digests" / f"{workload}-{seed}-{inputs_hash(s.files)}.sha256"
        self.saves = 0

    def pipeline(self, report, passes) -> list[str]:
        problems = []
        if report.status != "holds":
            return [f"pipeline status {report.status}"]
        inst = self.inst
        plans = [oracles.table_of(p) for p in report.mission_plans]
        problems += oracles.check_plans_in_mission(self.mission, plans)
        problems += oracles.check_counterexamples(self.mission, [
            ([oracles.table_of(m) for m in modules], verdict.counterexample)
            for modules, verdict in passes if verdict.counterexample is not None
        ])
        problems += oracles.check_closed_loops(inst, self.mission, plans)
        if self.workload == "ring":
            problems += oracles.check_ring_choices(inst, plans)
        else:
            pairs = generate.escort_pairs(
                generate.ESCORT_PAIRS if self.workload == "escorts" else 1)
            problems += oracles.check_escort_rooms(inst, plans, pairs)
        for agent, plan in zip(inst.agents, plans):
            n = agent.name
            integrated = oracles.table_of(report.artifacts[f"{n}_integrated.aut"])
            replanned = oracles.table_of(report.artifacts[f"{n}_replanned.aut"])
            problems += oracles.check_projection(agent, integrated, plan, self.regions,
                                                 "integrated plan")
            problems += oracles.check_projection(agent, replanned, plan, self.regions,
                                                 "replanned plan")
            problems += oracles.check_moves(agent, integrated, inst.nominal, "integrated plan")
            problems += oracles.check_moves(agent, replanned, inst.real, "replanned plan")
        problems += oracles.check_simulation(inst, plans, report.trace, STOP_EVENT)
        problems += self.determinism(report)
        return problems

    def determinism(self, report) -> list[str]:
        """The saved report and artifacts are byte-identical across ops and runs."""
        outdir = self.rundir / f"save{self.saves}"
        self.saves += 1
        report.save(outdir)
        h = hashlib.sha256()
        for path in sorted(outdir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        shutil.rmtree(outdir)
        digest = h.hexdigest()
        if self.digest is None:
            self.digest = digest
            if self.stored.exists():
                if self.stored.read_text().strip() != digest:
                    return [f"pipeline outputs differ from an earlier run ({self.stored.name})"]
            else:
                self.stored.parent.mkdir(parents=True, exist_ok=True)
                self.stored.write_text(digest + "\n")
        elif digest != self.digest:
            return ["pipeline outputs differ from the first op of this run"]
        return []

    def replan(self, report, replanned) -> list[str]:
        problems = []
        for agent, plan, lp in zip(self.inst.agents, report.mission_plans, replanned):
            table = oracles.table_of(lp.dfa)
            problems += oracles.check_projection(agent, table, oracles.table_of(plan),
                                                 self.regions, "replan op")
            problems += oracles.check_moves(agent, table, self.inst.real, "replan op")
            if lp.dfa != report.artifacts[f"{agent.name}_replanned.aut"]:
                problems.append(f"replan op of {agent.name} differs from the pipeline's")
        return problems


def inputs_hash(files: generate.InstanceFiles) -> str:
    """Digest of the program's sources and the workload's input files, so that
    stored outputs are compared only with outputs of the same program and inputs."""
    h = hashlib.sha256()
    sources = [p for p in sorted((SRC / "cosynth").rglob("*"))
               if p.is_file() and "__pycache__" not in p.parts]
    inputs = sorted(p for p in files.config.parent.iterdir() if p.is_file())
    for path in sources + inputs + [files.real_env, files.schedule]:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


class Iteration:
    """One round of the three ops, with their checks."""

    def __init__(self, s: Setup, checker: Checker):
        # called as module attributes, so that the traced run's wrappers are seen
        from cosynth import motion, pipeline, verification

        self.s = s
        self.checker = checker
        self.motion = motion
        self.pipeline = pipeline
        self.verification = verification

    def run_pipeline(self):
        s = self.s
        return self.pipeline.run_pipeline(s.config, s.files.real_env, s.files.schedule,
                                          stop_event=STOP_EVENT)

    def replan(self, plans, repeats: int):
        motion = self.motion
        return [[motion.replan(lp, motion.motion_dfa(self.s.nominal, lp.initial_region),
                               self.s.real) for lp in plans] for _ in range(repeats)]

    def __call__(self, recorder: PassRecorder, tracer=None,
                 probe: Optional[SpeedProbe] = None) -> list[OpResult]:
        """Time pipeline, verify and replan, then check them; returns the three results."""
        recorder.passes.clear()
        if tracer is not None:
            tracer.start_op("pipeline")
        pipe = timed(self.run_pipeline, probe=probe)
        passes = list(recorder.passes)
        if pipe.problems:
            failed = OpResult(problems=["pipeline op failed"])
            return [pipe, failed, failed]
        report = pipe.value
        if tracer is not None:
            tracer.start_op("verify")
        ver = timed(self.verification.verify, report.mission_plans,
                    report.artifacts["mission.aut"], probe=probe)
        plans = nominal_plans(self.s, report)
        if tracer is not None:
            tracer.start_op("replan")
        # the traced run replans once: its per-layer figures come from the pipeline op
        repeats = 1 if tracer is not None else REPLAN_REPEATS[self.checker.workload]
        rep = timed(self.replan, plans, repeats, probe=probe)
        if rep.seconds is not None:
            rep.seconds /= repeats
        if tracer is not None:
            tracer.op = None
        pipe.problems += self.checker.pipeline(report, passes)
        if not ver.problems and not ver.value[0].holds():
            ver.problems.append(f"(e) verify on the final plans: {ver.value[0].outcome}")
        if not rep.problems:
            first, *others = rep.value
            rep.problems += self.checker.replan(report, first)
            if any([lp.dfa for lp in other] != [lp.dfa for lp in first] for other in others):
                rep.problems.append("replan op: repeats of the same replanning differ")
        for op in (pipe, ver, rep):
            op.value = None  # keep the heap the same size from one iteration to the next
        return [pipe, ver, rep]


# -- runs ----------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def check_generator(rundir: Path) -> list[str]:
    """One escort pair describes the bundled case study: same mission, same report."""
    from cosynth.pipeline import PipelineConfig, run_pipeline

    bundled = generate.casestudy()
    generated = generate.escorts(rundir / "one-pair", 1, None)
    problems = []
    missions = []
    for files in (bundled, generated):
        inst = oracles.load_instance(files.config, files.real_env, files.schedule)
        missions.append(oracles.Mission(inst.components))
    witness = oracles.language_difference(*missions)
    if witness is not None:
        problems.append(f"one-pair mission differs from Lspe1 || Lspe2 at {' '.join(witness)}")
    reports = [
        run_pipeline(PipelineConfig.load(f.config), f.real_env, f.schedule, stop_event=STOP_EVENT)
        for f in (bundled, generated)
    ]
    if reports[0].text() != reports[1].text() or reports[0].trace != reports[1].trace:
        problems.append("one-pair report differs from the bundled case study's")
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool, rundir: Path) -> dict:
    setup_s = None if trace else measure_setup(workload, seed, rundir)
    s = setup(workload, seed, rundir / "inputs")
    problems: list[str] = []
    if workload == "escorts":
        problems += check_generator(rundir)
    checker = Checker(workload, seed, s, rundir)
    iteration = Iteration(s, checker)
    recorder = PassRecorder()
    tracer = None
    untraced: list[float] = []
    if trace:
        import tracing

        tracer = tracing.Tracer()
    results: list[list[OpResult]] = []
    deadline = clock() + seconds
    try:
        with SpeedProbe() if tracer is None else contextlib.nullcontext() as probe:
            while True:
                if tracer is None:
                    results.append(iteration(recorder, probe=probe))
                else:
                    untraced.append(timed(iteration.run_pipeline).seconds)
                    installed = tracing.install(tracer)
                    try:
                        results.append(iteration(recorder, tracer))
                    finally:
                        tracing.uninstall(installed)
                if clock() >= deadline:
                    break
    finally:
        recorder.close()
    attempted = 3 * len(results)
    failed = 0
    for ops in results:
        for name, op in zip(("pipeline", "verify", "replan"), ops):
            if op.problems:
                failed += 1
                print(f"{name} op failed: " + "; ".join(op.problems[:5]), file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    def median(i: int) -> float:
        times = [ops[i].seconds for ops in results if ops[i].seconds is not None]
        return statistics.median(times) if times else float("nan")

    if tracer is None:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "pipeline_s": metric(median(0), "s"),
            "verify_s": metric(median(1), "s"),
            "replan_s": metric(median(2), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics, coverage = layer_metrics(tracer, untraced)
        if abs(coverage - 1) > 0.02:
            problems.append(f"layer self times cover {coverage:.3f} of the traced pipeline span")
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{workload}-{seed}.tsv.gz")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# per-layer metrics: name -> (source, key, unit); sources are the inclusive time
# of a function group, a layer's self time, or a count
PER_LAYER = {
    "pipeline.self_s": ("self", "pipeline", "s"),
    "pipeline.mission_states": ("count", "pipeline.mission_states", "count"),
    "automata.self_s": ("self", "automata", "s"),
    "automata.minimize_s": ("incl", "automata.minimize", "s"),
    "automata.minimize_calls": ("count", "automata.minimize_calls", "count"),
    "automata.complete_s": ("incl", "automata.complete", "s"),
    "automata.complete_calls": ("count", "automata.complete_calls", "count"),
    "automata.compose_s": ("incl", "automata.compose", "s"),
    "automata.product_states_max": ("count", "automata.product_states_max", "count"),
    "automata.compare_s": ("incl", "automata.compare", "s"),
    "automata.dfa_built": ("count", "automata.dfa_built", "count"),
    "langops.self_s": ("self", "langops", "s"),
    "langops.project_s": ("incl", "langops.project", "s"),
    "langops.sup_c_s": ("incl", "langops.sup_c", "s"),
    "langops.sup_c_calls": ("count", "langops.sup_c_calls", "count"),
    "langops.satisfies_s": ("incl", "langops.satisfies", "s"),
    "lstar.self_s": ("self", "lstar", "s"),
    **{
        f"lstar.{k}.{m}": src
        for k in ("supervisor", "assumption", "motion")
        for m, src in (
            ("learn_s", ("incl", f"lstar.{k}.learn", "s")),
            ("mq", ("count", f"lstar.{k}.mq", "count")),
            ("eq", ("count", f"lstar.{k}.eq", "count")),
            ("ce", ("count", f"lstar.{k}.ce", "count")),
        )
    },
    "synthesis.self_s": ("self", "synthesis", "s"),
    "synthesis.supervisor_s": ("incl", "synthesis.synthesize_supervisor", "s"),
    "synthesis.calls": ("count", "synthesis.calls", "count"),
    "synthesis.supervisor_states": ("count", "synthesis.supervisor_states", "count"),
    "synthesis.illegal_words": ("count", "synthesis.illegal_words", "count"),
    "verification.self_s": ("self", "verification", "s"),
    "verification.verify_s": ("incl", "verification.verify", "s"),
    "verification.passes": ("count", "verification.passes", "count"),
    "verification.fallbacks": ("count", "verification.fallbacks", "count"),
    "verification.refinement_rounds": ("count", "verification.refinement_rounds", "count"),
    "verification.repairs": ("count", "verification.repairs", "count"),
    "verification.assumption_s": ("incl", "verification.learn_assumption", "s"),
    "verification.assumption_states": ("count", "verification.assumption_states", "count"),
    "verification.weakest_s": ("incl", "verification.weakest_assumption", "s"),
    "verification.sym_n_s": ("incl", "verification.sym_n_check", "s"),
    "verification.product_check_s": ("incl", "verification._direct_check", "s"),
    "verification.repair_s": ("incl", "verification.choose_repair", "s"),
    "motion.self_s": ("self", "motion", "s"),
    "motion.plan_s": ("incl", "motion.synthesize_motion_plan", "s"),
    "motion.integrate_s": ("incl", "motion.integrate", "s"),
    "motion.profile_s": ("incl", "motion.door_profile", "s"),
    "motion.integrated_states": ("count", "motion.integrated_states", "count"),
    "motion.replan_s": ("incl", "motion.replan", "s"),
    "motion.replan_calls": ("count", "motion.replan_calls", "count"),
    "motion.simulate_s": ("incl", "motion.simulate", "s"),
    "motion.sim_steps": ("count", "motion.sim_steps", "count"),
    "motion.sim_replans": ("count", "motion.sim_replans", "count"),
    **{f"stage.{k}_s": ("stage", k, "s") for k in (
        "decomposition", "supervisor", "verification", "motion", "replan", "simulation")},
}


def layer_metrics(tracer, untraced: list[float]) -> tuple[dict, float]:
    """Per-layer metrics of the fastest traced pipeline op, and the share of the
    traced pipeline spans that the layers' self times cover."""
    ops = [op for op in tracer.ops if op.kind == "pipeline"]
    fastest = min(ops, key=lambda op: op.root_s)
    tables = {"self": fastest.self_s, "incl": fastest.incl_s, "stage": fastest.stage_s,
              "count": fastest.counts}
    out = {name: metric(tables[source].get(key, 0), unit)
           for name, (source, key, unit) in PER_LAYER.items()}
    out["trace.pipeline_s"] = metric(fastest.root_s, "s")
    out["trace.overhead_pct"] = metric(100 * (fastest.root_s / min(untraced) - 1), "%")
    covered = sum(sum(op.self_s.values()) for op in ops)
    return out, covered / sum(op.root_s for op in ops)


# -- steadiness mode -----------------------------------------------------------------------


def steady(workloads: list[str], runs: int, first_seed: int, seconds: Optional[int]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        fails = []
        for seed in range(first_seed, first_seed + runs):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600, cwd=ROOT,
            )
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            fails.append((result["correct"], result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {runs} runs of {seconds}s; (correct, failed, attempted) = {fails}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound or name == "setup_s":
                verdict = "within bound, above a third of it"
            else:
                verdict = "OVER BOUND"
                worst = 1
            print(f"  {name:12s} median {med:.6g}  spread {spread:6.1%}  "
                  f"bound {bound:.0%}  {verdict}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
    return worst


# -- entry point ---------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--check-generator", action="store_true")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--dir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed, args.dir)
        return 0
    import_program()
    if args.steady:
        return steady([args.workload] if args.workload else list(WORKLOADS), args.runs,
                      args.first_seed, args.seconds)
    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.check_generator:
            problems = check_generator(rundir)
            for problem in problems:
                print(problem, file=sys.stderr)
            print("generator check: " + ("ok" if not problems else "FAILED"))
            return 1 if problems else 0
        if args.workload is None or args.seconds is None:
            p.error("--workload and --seconds are required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
