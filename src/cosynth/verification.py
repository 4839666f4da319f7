"""Verification of the composed mission plans, with mission re-synthesis.

One verification pass is the direct product check: the agents' plans are
composed and walked against the completed property, and the shortest
violating word, realisable by every agent, is the counterexample.

The paper's compositional mode is :func:`assume_guarantee`, which the
``cosynth verify`` command runs.  It builds, per agent, the weakest
environment assumption over that agent's interface alphabet by the direct
construction of Giannakopoulou, Păsăreanu and Barringer (ASE 2002), then
discharges the symmetric n-module proof rule: if the composed complements of
all assumptions stay inside the property, the composed system satisfies it.
When the rule produces a counterexample the word is simulated on every
agent against the complemented property: a word every agent can follow is a
genuine joint violation; a word some agent rejects is an artefact of the
proof rule.  The rule is sound but not complete for arbitrary interface
alphabets, so an inconclusive pass falls back to the product check, and a
concluded one is confirmed by it.

Re-synthesis cuts counterexample projections from the local missions (see
:func:`choose_repair`): agents that observed nothing of the violation are
exonerated, and among the involved agents the cut is placed, walking
backwards from the event that committed the violation, on the first agent it
does not reduce to a finite stub.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from cosynth.automata import (
    EPSILON,
    Dfa,
    EventAlphabet,
    InputError,
    Word,
    accepts,
    all_marked,
    complement,
    complete,
    empty_dfa,
    extend_closure,
    language_empty,
    language_subset,
    minimize,
    parallel_compose_all,
    prefix_closure,
    trim,
    word_dfa,
    _determinize,
)
from cosynth.langops import (
    prefix_close_largest,
    project_word,
    satisfies,
    widen_alphabet,
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification pass."""

    outcome: str  # "holds" | "violated" | "refine"
    counterexample: Optional[Word] = None
    agent: Optional[int] = None

    def holds(self) -> bool:
        return self.outcome == "holds"

    def render(self) -> str:
        parts = [f"outcome: {self.outcome}"]
        if self.counterexample is not None:
            parts.append("counterexample: " + (" ".join(self.counterexample) or "-"))
        if self.agent is not None:
            parts.append(f"agent: {self.agent + 1}")
        return "\n".join(parts) + "\n"


def check_triple(assumption: Dfa, module: Dfa, prop: Dfa) -> Optional[Word]:
    """None if ⟨A⟩ M ⟨P⟩ holds; else the shortest word reaching the error state.

    The assumption and module act as prefix constraints (their runnable
    behaviour restricted to prefixes of accepted words), the property is
    completed and violated exactly when its component leaves the accepted
    region.
    """
    a = prefix_closure(assumption)
    comp, _ = complete(prop)
    alphabet = assumption.alphabet.union(module.alphabet).union(prop.alphabet)
    in_a = {e: e in a.alphabet for e in alphabet.events}
    in_m = {e: e in module.alphabet for e in alphabet.events}
    in_p = {e: e in prop.alphabet for e in alphabet.events}
    start = (a.initial, module.initial, comp.initial)
    if comp.initial not in prop.marked:
        return EPSILON
    seen = {start}
    queue: deque[tuple[tuple[str, str, str], Word]] = deque([(start, EPSILON)])
    while queue:
        (qa, qm, qp), word = queue.popleft()
        for e in alphabet.events:
            na = a.transitions.get((qa, e)) if in_a[e] else qa
            nm = module.transitions.get((qm, e)) if in_m[e] else qm
            if (in_a[e] and na is None) or (in_m[e] and nm is None):
                continue
            np_ = comp.transitions[(qp, e)] if in_p[e] else qp
            w = word + (e,)
            if np_ not in prop.marked:
                return w
            nxt = (na, nm, np_)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w))
    return None


def weakest_assumption(module: Dfa, prop: Dfa, interface: EventAlphabet) -> Dfa:
    """The weakest assumption over the interface alphabet, built directly.

    A word t is admitted iff no globally runnable behaviour that projects
    into the prefixes of t lets the module violate the property.  The
    violating projections form a regular set B; the result is the
    complement of B·Σ*, minimised.
    """
    alphabet = module.alphabet.union(prop.alphabet)
    for e in interface.events:
        if e not in alphabet:
            raise InputError(f"interface event {e!r} unknown to module and property")
    comp, _ = complete(prop)
    in_m = {e: e in module.alphabet for e in alphabet.events}
    in_p = {e: e in prop.alphabet for e in alphabet.events}
    interface_set = set(interface.events)

    # product of the module (as a prefix constraint) with the completed
    # property, with transition labels projected onto the interface
    nfa: dict[tuple[str, Optional[str]], set[str]] = {}
    start = (module.initial, comp.initial)
    order = [start]
    seen = {start}
    queue = deque(order)
    accepting: set[str] = set()

    def name(qm: str, qp: str) -> str:
        return f"{qm}|{qp}"

    if comp.initial not in prop.marked:
        accepting.add(name(*start))
    while queue:
        qm, qp = queue.popleft()
        if qp not in prop.marked:
            continue  # violation is absorbing for the trigger set
        for e in alphabet.events:
            nm = module.transitions.get((qm, e)) if in_m[e] else qm
            if in_m[e] and nm is None:
                continue
            np_ = comp.transitions[(qp, e)] if in_p[e] else qp
            label = e if e in interface_set else None
            nfa.setdefault((name(qm, qp), label), set()).add(name(nm, np_))
            nxt = (nm, np_)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                if np_ not in prop.marked:
                    accepting.add(name(nm, np_))
    bad = _determinize(nfa, {name(*start)}, accepting, interface)
    return minimize(complement(extend_closure(bad)))


def cv_membership(t: Word, module: Dfa, prop: Dfa, interface: EventAlphabet) -> int:
    """1 iff the prefixes of t, as an assumption, keep the module inside the property."""
    return 1 if check_triple(word_dfa(t, interface), module, prop) is None else 0


def learn_assumption(module: Dfa, prop: Dfa, interface: EventAlphabet) -> Dfa:
    """The weakest assumption for one agent over its interface alphabet.

    Built directly by :func:`weakest_assumption`; it is the language an L*
    session answered by :func:`cv_membership` would converge to.
    """
    assumption = weakest_assumption(module, prop, interface)
    if not language_empty(assumption):
        # an empty assumption admits no environment at all, so its premise
        # holds vacuously; the product check only applies to the other case
        violation = check_triple(assumption, module, prop)
        if violation is not None:
            raise AssertionError(
                f"weakest assumption fails its own premise at {' '.join(violation) or 'ε'}"
            )
    return assumption


def sym_n_check(assumptions: Sequence[Dfa], prop: Dfa) -> Optional[Word]:
    """Premise n+1 of the symmetric rule: the composed complement languages
    must stay inside the property; None if they do, else a witness word."""
    if not assumptions:
        raise InputError("need at least one assumption")
    complements = [complement(a) for a in assumptions]
    composed = parallel_compose_all(complements)
    alphabet = composed.alphabet.union(prop.alphabet)
    return satisfies(widen_alphabet(composed, alphabet), prop)


def analyze_counterexample(t: Word, modules: Sequence[Dfa], prop: Dfa) -> Verdict:
    """Simulate t against every module composed with the complemented property.

    A word accepted by every such composition is a common violating word;
    otherwise the least-index rejecting agent is reported for refinement.
    """
    prop_events = tuple(prop.alphabet.events)
    violates = not accepts(prop, project_word(t, prop_events))
    for i, m in enumerate(modules):
        local = project_word(t, m.alphabet.events)
        if not (violates and accepts(m, local)):
            return Verdict("refine", counterexample=t, agent=i)
    return Verdict("violated", counterexample=t)


def is_live(dfa: Dfa) -> bool:
    """True if the trimmed automaton still contains a cycle (unbounded behaviour)."""
    t = trim(dfa)
    successors = {q: [] for q in t.states}
    for (q, _e), nxt in t.transitions.items():
        successors[q].append(nxt)
    color: dict[str, int] = {}
    for root in t.states:
        if root in color:
            continue
        color[root] = 1
        stack = [(root, iter(successors[root]))]
        while stack:
            q, pending = stack[-1]
            for nxt in pending:
                c = color.get(nxt, 0)
                if c == 1:
                    return True
                if c == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(successors[nxt])))
                    break
            else:
                color[q] = 2
                stack.pop()
    return False


def cut_behavior(plan: Dfa, w: Word) -> Dfa:
    """Remove the local decision that ends the observed word w.

    On the minimal plan automaton the states are observational equivalence
    classes, so deleting the transition taken by the final event of w
    removes w together with every behaviour the agent cannot distinguish
    from it, in particular the same decision at every later mission
    cycle, which plain word subtraction would leave open.
    """
    if not w:
        raise InputError("cannot cut the empty observation")
    m = minimize(plan)
    state = m.initial
    for symbol in w[:-1]:
        state = m.transitions[(state, symbol)]
    transitions = dict(m.transitions)
    del transitions[(state, w[-1])]
    cut = Dfa(m.states, m.alphabet, m.initial, transitions, m.marked)
    return minimize(prefix_close_largest(cut))


def choose_repair(t: Word, plans: Sequence[Dfa]) -> Optional[tuple[int, Word, Dfa]]:
    """Pick the agent whose mission absorbs the counterexample cut.

    Agents whose projection of t is empty never see the violation, so no
    cut of theirs other than emptying the mission could remove it; they
    are left alone.  Walking back from the final (committing) event, the
    cut goes to the first involved agent it leaves live; an agent whose
    mission was already finite may receive a finite cut.  Returns None if
    no involved agent admits an acceptable cut.
    """
    tried: set[tuple[int, Word]] = set()
    fallback: Optional[tuple[int, Word, Dfa]] = None
    for k in reversed(range(len(t))):
        event = t[k]
        for i, plan in enumerate(plans):
            if event not in plan.alphabet:
                continue
            w = project_word(t[: k + 1], plan.alphabet.events)
            if not w or (i, w) in tried:
                continue
            tried.add((i, w))
            if not accepts(plan, w):
                continue
            removed = cut_behavior(plan, w)
            if is_live(removed) or not is_live(plan):
                return i, w, removed
            if fallback is None:
                fallback = (i, w, removed)
    return fallback


def verify(modules: Sequence[Dfa], prop: Dfa) -> tuple[Verdict, int]:
    """One verification pass: the direct product check.

    Returns the verdict and the number of states of the agents' product.
    A violated verdict's counterexample is realisable by every agent.
    """
    witness, product_states = _direct_check(modules, prop)
    if witness is None:
        return Verdict("holds"), product_states
    verdict = analyze_counterexample(witness, modules, prop)
    if verdict.outcome != "violated":
        raise AssertionError("direct counterexample must be realisable")
    return verdict, product_states


def assume_guarantee(modules: Sequence[Dfa], prop: Dfa) -> tuple[Verdict, list[Dfa], bool]:
    """One pass of the symmetric assume-guarantee rule over the agents.

    Returns the verdict, the weakest assumptions over the default interface
    alphabets, and whether the rule was inconclusive so that the product
    check decided.  A holds verdict of the rule is confirmed by the product
    check; a violated verdict's counterexample is realisable by every agent.
    """
    assumptions = [
        learn_assumption(module, prop, default_interface(i, modules, prop))
        for i, module in enumerate(modules)
    ]
    premise = sym_n_check(assumptions, prop)
    if premise is not None:
        verdict = analyze_counterexample(premise, modules, prop)
        if verdict.outcome == "violated":
            return verdict, assumptions, False
    # the rule concluded holds, or was inconclusive: the assumptions are
    # already weakest, so a spurious counterexample cannot be refined away
    verdict, _ = verify(modules, prop)
    if premise is None and not verdict.holds():
        raise AssertionError(
            f"assume-guarantee concluded holds but the product violates the property "
            f"at {' '.join(verdict.counterexample or ()) or 'ε'}"
        )
    return verdict, assumptions, premise is not None


def default_interface(i: int, modules: Sequence[Dfa], prop: Dfa) -> EventAlphabet:
    """Default interface alphabet: the agent's shared events plus the
    property alphabet, clipped to the agent's own events and to the
    admissible set (common events union property events)."""
    own = set(modules[i].alphabet.events)
    others: set[str] = set()
    for j, m in enumerate(modules):
        if j != i:
            others |= set(m.alphabet.events)
    common = set(modules[0].alphabet.events)
    for m in modules[1:]:
        common &= set(m.alphabet.events)
    admissible = common | set(prop.alphabet.events)
    chosen = ((own & others) | set(prop.alphabet.events)) & own & admissible
    return modules[i].alphabet.restrict(chosen)


def _direct_check(modules: Sequence[Dfa], prop: Dfa) -> tuple[Optional[Word], int]:
    """The shortest word of the agents' product that violates the property
    (None if there is none), and the product's number of states."""
    product = parallel_compose_all(list(modules))
    alphabet = product.alphabet.union(prop.alphabet)
    return satisfies(widen_alphabet(product, alphabet), prop), len(product.states)


@dataclass
class RefinementRound:
    verdict: Verdict
    product_states: int
    repairs: list[tuple[int, Word]] = field(default_factory=list)
    # every pass is the product check, so none falls back to it from a proof
    # rule; kept because the benchmark's tracer (perfbench/tracing.py) reads it
    fallback = False


@dataclass
class RefinementResult:
    status: str  # "holds" | "infeasible"
    plans: list[Dfa]
    supervisors: list[Dfa]
    rounds: list[RefinementRound]
    counterexample: Optional[Word] = None

    @property
    def refinement_rounds(self) -> int:
        return sum(1 for r in self.rounds if r.repairs)


def verify_and_refine(
    specs: Sequence[Dfa],
    plants: Sequence[Dfa],
    prop: Dfa,
    synthesize,
    max_rounds: int = 100,
) -> RefinementResult:
    """The mission-layer loop: synthesise, verify, re-synthesise until clean.

    ``synthesize(spec, plant)`` must return the supervisor for one agent.
    A violated verdict opens a repair phase that eliminates joint
    violations one counterexample at a time (each repair cuts exactly one
    agent's mission and strictly shrinks it); the updated supervisors then
    go through verification again.  Rounds with at least one repair count
    as refinement rounds.
    """
    specs = list(specs)
    supervisors = [synthesize(spec, plant) for spec, plant in zip(specs, plants)]
    plans = [closed_loop(s, g) for s, g in zip(supervisors, plants)]
    rounds: list[RefinementRound] = []
    for _ in range(max_rounds):
        verdict, product_states = verify(plans, prop)
        record = RefinementRound(verdict, product_states)
        rounds.append(record)
        if verdict.holds():
            return RefinementResult("holds", plans, supervisors, rounds)
        ce = verdict.counterexample
        if ce is None:
            raise AssertionError("a failing verdict must carry a counterexample")
        while ce is not None:
            if len(record.repairs) >= max_rounds:
                return RefinementResult("infeasible", plans, supervisors, rounds, ce)
            repair = choose_repair(ce, plans)
            if repair is None:
                return RefinementResult("infeasible", plans, supervisors, rounds, ce)
            agent, cut_word, new_spec = repair
            shrunk = language_subset(new_spec, plans[agent])
            if shrunk is not None:
                raise AssertionError("re-synthesis must shrink the mission")
            specs[agent] = new_spec
            record.repairs.append((agent, cut_word))
            if language_empty(new_spec):
                return RefinementResult("infeasible", plans, supervisors, rounds, ce)
            supervisors[agent] = synthesize(new_spec, plants[agent])
            new_plan = closed_loop(supervisors[agent], plants[agent])
            if language_empty(new_plan):
                # not even the idle behaviour is enforceable for this agent
                return RefinementResult("infeasible", plans, supervisors, rounds, ce)
            shrunk = language_subset(new_plan, plans[agent])
            if shrunk is not None:
                raise AssertionError("mission plans must shrink monotonically")
            plans[agent] = new_plan
            ce, _ = _direct_check(plans, prop)
    return RefinementResult("infeasible", plans, supervisors, rounds,
                            rounds[-1].verdict.counterexample if rounds else None)


def closed_loop(supervisor: Dfa, plant: Dfa) -> Dfa:
    """Generated behaviour of the plant under supervision, as an all-marked DFA."""
    if language_empty(supervisor):
        return empty_dfa(supervisor.alphabet)
    composed = parallel_compose_all([supervisor, plant])
    return minimize(all_marked(composed))
