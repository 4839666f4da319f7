"""Span tracing of the program's layers from outside the program.

:func:`install` replaces the public functions of every ``cosynth`` module
with timing wrappers, in each module namespace that refers to them, so calls
from one layer into another pass through a wrapper.  The L* learner's teacher
is wrapped in a proxy that counts membership queries (MQ), equivalence
queries (EQ) and counterexamples (CE) per learner kind.  :func:`uninstall`
puts the originals back.

Each span records its name, layer, start, end, parent span and op id; spans
stay in memory until :meth:`Tracer.write`.  A span's self time is its
duration minus the durations of its child spans, so the self times of all
spans of one op add up to the op's root span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("automata", "langops", "lstar", "synthesis", "verification", "motion", "pipeline")
LEARNER_KINDS = {
    "SupervisorTeacher": "supervisor",
    "AssumptionTeacher": "assumption",
    "MotionTeacher": "motion",
}
# called once per membership query or symbol; their cost stays with the caller
HOT = {"automata.run", "automata.accepts", "automata.generates", "langops.project_word"}
PRIVATE = {"verification._direct_check", "motion._enumerate_plan_words",
           "motion._interleave", "motion._plan_from_words"}
# inclusive-time metrics that cover more than one function
GROUPS = {
    "automata.parallel_compose": "automata.compose",
    "automata.parallel_compose_all": "automata.compose",
    "automata.language_subset": "automata.compare",
    "automata.language_equal": "automata.compare",
}

# pipeline stages: a span's self time goes to the innermost stage around it;
# time outside every stage below run_pipeline is decomposition and report glue
STAGES = {
    "pipeline.run_pipeline": "decomposition",
    "synthesis.synthesize_supervisor": "supervisor",
    "verification.verify_and_refine": "verification",
    "motion.synthesize_motion_plan": "motion",
    "motion.integrate": "motion",
    "motion.replan": "replan",
    "motion.simulate": "simulation",
}

clock = time.perf_counter


class OpStats:
    """Per-op aggregates, kept as the spans close."""

    def __init__(self, kind: str):
        self.kind = kind
        self.root_s = 0.0
        self.self_s: dict[str, float] = defaultdict(float)  # per layer
        self.incl_s: dict[str, float] = defaultdict(float)  # per function group
        self.stage_s: dict[str, float] = defaultdict(float)  # per pipeline stage
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, op, layer, name, start, end, self)
        self.ops: list[OpStats] = []
        self._stack: list[list] = []  # [id, start, child_seconds]
        self._stages: list[str] = []
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self.op: Optional[OpStats] = None

    def start_op(self, kind: str) -> OpStats:
        self.op = OpStats(kind)
        self.ops.append(self.op)
        return self.op

    def count(self, key: str, n: int = 1) -> None:
        if self.op is not None:
            self.op.counts[key] += n

    def maximum(self, key: str, n: int) -> None:
        if self.op is not None and n > self.op.counts[key]:
            self.op.counts[key] = n

    def call(self, layer: str, name: str, group: str, fn: Callable, *args,
             stage: Optional[str] = None, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        self._active[group] += 1
        if stage is not None:
            self._stages.append(stage)
        frame = [span_id, clock(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self._stack.pop()
            self._active[group] -= 1
            duration = end - frame[1]
            own = duration - frame[2]
            parent = None
            if self._stack:
                self._stack[-1][2] += duration
                parent = self._stack[-1][0]
            op = self.op
            op_index = len(self.ops) - 1
            self.spans.append((span_id, parent, op_index, layer, name, frame[1], end, own))
            if op is not None:
                op.self_s[layer] += own
                op.stage_s[self._stages[-1] if self._stages else "decomposition"] += own
                if not self._active[group]:
                    op.incl_s[group] += duration
                if parent is None:
                    op.root_s += duration
            if stage is not None:
                self._stages.pop()

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id\tparent\top\tlayer\tname\tstart\tend\tself\n")
            for span in self.spans:
                sid, parent, op, layer, name, start, end, own = span
                out.write(f"{sid}\t{'' if parent is None else parent}\t{op}\t{layer}\t{name}"
                          f"\t{start:.9f}\t{end:.9f}\t{own:.9f}\n")


class _TeacherProxy:
    """Forwards to a teacher, counting and timing the queries it answers."""

    def __init__(self, inner, tracer: Tracer, kind: str, layer: str):
        self._inner = inner
        self._tracer = tracer
        self._kind = kind
        self._layer = layer

    def membership(self, word):
        self._tracer.count(f"lstar.{self._kind}.mq")
        return self._tracer.call(self._layer, f"{self._layer}.membership", "teacher.mq",
                                 self._inner.membership, word)

    def conjecture(self, dfa):
        self._tracer.count(f"lstar.{self._kind}.eq")
        ce = self._tracer.call(self._layer, f"{self._layer}.conjecture", "teacher.eq",
                               self._inner.conjecture, dfa)
        if ce is not None:
            self._tracer.count(f"lstar.{self._kind}.ce")
        return ce

    @property
    def generation(self):
        return self._inner.generation


def _states(dfa) -> int:
    return len(dfa.states)


def _after(tracer: Tracer, key: str, result) -> None:
    """Counts read from what a traced call took and returned."""
    if key == "automata.minimize":
        tracer.count("automata.minimize_calls")
    elif key == "automata.complete":
        tracer.count("automata.complete_calls")
    elif key == "automata.parallel_compose":
        tracer.maximum("automata.product_states_max", _states(result))
    elif key == "langops.sup_c":
        tracer.count("langops.sup_c_calls")
    elif key == "synthesis.synthesize_supervisor":
        tracer.count("synthesis.calls")
        tracer.count("synthesis.supervisor_states", _states(result))
    elif key == "verification.learn_assumption":
        tracer.count("verification.assumption_states", _states(result))
    elif key == "verification.verify_and_refine":
        tracer.count("verification.passes", len(result.rounds))
        tracer.count("verification.fallbacks", sum(1 for r in result.rounds if r.fallback))
        tracer.count("verification.refinement_rounds", result.refinement_rounds)
        tracer.count("verification.repairs", sum(len(r.repairs) for r in result.rounds))
    elif key == "motion.integrate":
        tracer.count("motion.integrated_states", _states(result.dfa))
    elif key == "motion.replan":
        tracer.count("motion.replan_calls")
    elif key == "motion.simulate":
        tracer.count("motion.sim_steps", len(result.trace))
        tracer.count("motion.sim_replans", sum(1 for line in result.trace
                                               if line.endswith(" replan")))
    elif key == "pipeline.run_pipeline":
        tracer.count("pipeline.mission_states", _states(result.artifacts["mission.aut"]))


def _wrap(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    key = f"{layer}.{fn.__name__}"
    group = GROUPS.get(key, key)
    stage = STAGES.get(key)

    if key == "lstar.learn":
        @functools.wraps(fn)
        def learn(teacher, *args, **kwargs):
            cls = type(teacher)
            kind = LEARNER_KINDS.get(cls.__name__, "other")
            teacher_layer = cls.__module__.rsplit(".", 1)[-1]
            proxy = _TeacherProxy(teacher, tracer, kind, teacher_layer)
            result = tracer.call(layer, f"lstar.learn.{kind}", f"lstar.{kind}.learn",
                                 fn, proxy, *args, **kwargs)
            if kind == "supervisor":
                tracer.count("synthesis.illegal_words", len(teacher.illegal.words))
            return result

        return learn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(layer, key, group, fn, *args, stage=stage, **kwargs)
        _after(tracer, key, result)
        return result

    return wrapper


class Installation:
    """The patched namespace entries and the class hook, for :func:`uninstall`."""

    def __init__(self) -> None:
        self.patched: list[tuple[dict, str, Callable]] = []
        self.post_init: Optional[tuple[type, Callable]] = None


def install(tracer: Tracer) -> Installation:
    modules = {layer: importlib.import_module(f"cosynth.{layer}") for layer in LAYERS}
    wrappers: dict[int, Callable] = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            key = f"{layer}.{name}"
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__ or key in HOT:
                continue
            if name.startswith("_") and key not in PRIVATE:
                continue
            wrappers[id(obj)] = _wrap(tracer, layer, obj)
    inst = Installation()
    for mod in modules.values():
        namespace = vars(mod)
        for name, obj in list(namespace.items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                inst.patched.append((namespace, name, obj))
                namespace[name] = wrapper
    dfa_cls = modules["automata"].Dfa
    original = dfa_cls.__post_init__

    def counted_post_init(self) -> None:
        tracer.count("automata.dfa_built")
        original(self)

    dfa_cls.__post_init__ = counted_post_init
    inst.post_init = (dfa_cls, original)
    return inst


def uninstall(inst: Installation) -> None:
    for namespace, name, original in inst.patched:
        namespace[name] = original
    if inst.post_init is not None:
        cls, original = inst.post_init
        cls.__post_init__ = original
