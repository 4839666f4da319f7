"""Command line interface.

Exit codes: 0 on success (property holds), 1 when a property is violated, a
plan is infeasible or the refinement runs out of rounds (status: undecided),
2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from cosynth.automata import (
    InputError,
    dfa_to_text,
    load_dfa,
    minimal_product,
    save_dfa,
)
from cosynth.langops import project
from cosynth.lstar import LearnLog
from cosynth.motion import (
    IntegratedPlan,
    environment_from_text,
    integrate_agent,
    labeling_from_text,
    motion_dfa,
    replan,
    MotionInfeasible,
    ReplanInfeasible,
)
from cosynth.pipeline import PipelineConfig, run_pipeline
from cosynth.synthesis import learn_supervisor
from cosynth.verification import assume_guarantee
from cosynth.automata import complement as _complement
from cosynth.automata import parallel_compose as _compose


def _write(dfa, out: str | None) -> None:
    text = dfa_to_text(dfa)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_env(path: str):
    return environment_from_text(Path(path).read_text(encoding="utf-8"), source=path)


def cmd_compose(args) -> int:
    left, right = load_dfa(args.left), load_dfa(args.right)
    if args.minimize:
        result = minimal_product([left, right], left.alphabet.union(right.alphabet))
    else:
        result = _compose(left, right)
    _write(result, args.out)
    return 0


def cmd_project(args) -> int:
    dfa = load_dfa(args.automaton)
    _write(project(dfa, tuple(args.events.split(","))), args.out)
    return 0


def cmd_complement(args) -> int:
    _write(_complement(load_dfa(args.automaton)), args.out)
    return 0


def cmd_supc(args) -> int:
    spec = load_dfa(args.spec)
    plant = load_dfa(args.plant)
    log = LearnLog() if args.trace else None
    supervisor = learn_supervisor(spec, plant, log=log)
    if args.trace:
        Path(args.trace).write_text(log.text(), encoding="utf-8")
    _write(supervisor, args.out)
    return 0


def cmd_verify(args) -> int:
    prop = load_dfa(args.property)
    modules = [load_dfa(p) for p in args.modules]
    verdict, _assumptions, fallback = assume_guarantee(modules, prop)
    sys.stdout.write(verdict.render())
    if fallback:
        sys.stdout.write("note: proof rule inconclusive; verdict from the direct product check\n")
    return 0 if verdict.holds() else 1


def _agent_plan(args, env) -> IntegratedPlan:
    """The integrated plan of ``args.agent``'s mission in the nominal environment."""
    mission = load_dfa(args.mission)
    labelings = labeling_from_text(
        Path(args.labeling).read_text(encoding="utf-8"), env.regions, source=args.labeling
    )
    return integrate_agent(mission, labelings, env, args.agent)


def cmd_plan(args) -> int:
    lp = _agent_plan(args, _load_env(args.env))
    prefix = Path(args.out_prefix)
    save_dfa(lp.motion_plan, prefix.with_name(prefix.name + "_motion.aut"))
    save_dfa(lp.dfa, prefix.with_name(prefix.name + "_integrated.aut"))
    save_dfa(lp.profile, prefix.with_name(prefix.name + "_profile.aut"))
    return 0


def cmd_replan(args) -> int:
    env = _load_env(args.env)
    real_env = _load_env(args.real_env)
    lp = _agent_plan(args, env)
    new_lp = replan(lp, motion_dfa(env, lp.initial_region), real_env)
    prefix = Path(args.out_prefix)
    save_dfa(new_lp.dfa, prefix.with_name(prefix.name + "_integrated.aut"))
    save_dfa(new_lp.profile, prefix.with_name(prefix.name + "_profile.aut"))
    return 0


def _run_pipeline(args, log_stream):
    """The pipeline run that ``cosynth pipeline`` and ``cosynth simulate``
    make from their shared options."""
    config = PipelineConfig.load(args.config)
    config.max_rounds = args.max_rounds
    return run_pipeline(config, real_env_path=args.real_env, schedule_path=args.schedule,
                        log_stream=log_stream, stop_event=args.stop_event)


def cmd_simulate(args) -> int:
    report = _run_pipeline(args, sys.stderr)
    if args.trace_out and report.trace is not None:
        Path(args.trace_out).write_text(report.trace, encoding="utf-8")
    elif report.trace is not None:
        sys.stdout.write(report.trace)
    return 0 if report.status == "holds" else 1


def cmd_pipeline(args) -> int:
    report = _run_pipeline(args, sys.stderr if args.verbose else None)
    report.save(args.out)
    if args.trace_out and report.trace is not None:
        Path(args.trace_out).write_text(report.trace, encoding="utf-8")
    sys.stdout.write(f"status: {report.status}\n")
    return 0 if report.status == "holds" else 1


MAX_ROUNDS_HELP = ("repairs the refinement may make in one run, all passes together "
                   "(default 100); a run that needs more ends status: undecided")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cosynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="parallel composition of two automata")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--out")
    p.add_argument("--minimize", action="store_true")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("project", help="natural projection onto an event subset")
    p.add_argument("automaton")
    p.add_argument("--events", required=True, help="comma-separated target events")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("complement", help="language complement")
    p.add_argument("automaton")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser("supc", help="learn the supervisor enforcing supC(spec) on the plant")
    p.add_argument("spec")
    p.add_argument("plant")
    p.add_argument("-o", "--out")
    p.add_argument("--trace", help="write the MQ/EQ/CE learning trace to this file")
    p.set_defaults(func=cmd_supc)

    p = sub.add_parser("verify", help="check modules against a property by the symmetric "
                       "assume-guarantee rule; the product check decides where the rule cannot")
    p.add_argument("property")
    p.add_argument("modules", nargs="+")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plan", help="synthesise a motion plan and integrated plan")
    p.add_argument("mission")
    p.add_argument("--env", required=True)
    p.add_argument("--labeling", required=True)
    p.add_argument("--agent", required=True)
    p.add_argument("-o", "--out-prefix", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("replan", help="replan an integrated plan against a real environment")
    p.add_argument("mission")
    p.add_argument("--env", required=True)
    p.add_argument("--real-env", required=True)
    p.add_argument("--labeling", required=True)
    p.add_argument("--agent", required=True)
    p.add_argument("-o", "--out-prefix", required=True)
    p.set_defaults(func=cmd_replan)

    p = sub.add_parser("simulate", help="run the pipeline and simulate the plans")
    p.add_argument("--config", required=True)
    p.add_argument("--real-env")
    p.add_argument("--schedule")
    p.add_argument("--trace-out")
    p.add_argument("--stop-event", default="r")
    p.add_argument("--max-rounds", type=int, default=100, help=MAX_ROUNDS_HELP)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="full synthesis pipeline from a configuration file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory for report and artifacts")
    p.add_argument("--real-env")
    p.add_argument("--schedule")
    p.add_argument("--trace-out")
    p.add_argument("--stop-event", default="r")
    p.add_argument("--max-rounds", type=int, default=100, help=MAX_ROUNDS_HELP)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MotionInfeasible, ReplanInfeasible) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
