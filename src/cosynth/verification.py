"""Verification of the composed mission plans, with mission re-synthesis.

One verification pass is the direct product check: the agents' plans and
the property are walked together on the fly, breadth first over tuples of
plan states and a property state, without building the product automaton;
a missing property transition leads to an implicit, absorbing, unmarked
sink.  The shortest violating word, realisable by every agent, is the
counterexample.  The walk is the DFA core's one violation walk,
:func:`cosynth.automata.product_violation`; :func:`sym_n_check` runs it on
the complemented assumptions.  The plans the refinement loop verifies are
the supervisors themselves: each is supC(K) ⊆ K ⊆ L(G), so its closed loop
with the plant G is the supervisor.

The paper's compositional mode is :func:`assume_guarantee`, which the
``cosynth verify`` command runs.  It builds, per agent, the weakest
environment assumption over that agent's interface alphabet by the direct
construction of Giannakopoulou, Păsăreanu and Barringer (ASE 2002), from the
core's product steps of the module with the property moved along its own
transitions, then discharges the symmetric n-module proof rule: if the
composed complements of all assumptions stay inside the property, the
composed system satisfies it.  When the rule produces a counterexample the
word is simulated on every agent against the complemented property: a word
every agent can follow is a genuine joint violation; a word some agent
rejects is an artefact of the proof rule.  The rule is sound but not complete for arbitrary interface
alphabets, so an inconclusive pass falls back to the product check; a
concluded one decides the verdict on its own.

The invariants that hold by construction are not re-checked at run time:
a product witness is a word of every plan that the property rejects, a
repair shrinks its plan, a weakest assumption passes its own premise, and
a concluded proof rule agrees with the product check.  The tests assert
each of them as a property.

Re-synthesis cuts counterexample projections from the local missions (see
:func:`choose_repair`): agents that observed nothing of the violation are
exonerated, and among the involved agents the cut is placed, walking
backwards from the event that committed the violation, on the first agent it
does not reduce to a finite stub.  One budget, ``max_rounds`` (the CLI's
``--max-rounds``), bounds all repairs of a run; a run that exhausts it is
undecided, not infeasible: its report reads ``out-of-rounds: N repairs``
and ``status: undecided``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    InputError,
    Word,
    accepts,
    complement,
    empty_dfa,
    minimize,
    product_violation,
    universal_dfa,
    _minimize_numbered,
    _numbered_walk,
    _out_edges,
    _Product,
    _subset_walk,
    _union_events,
)
from cosynth.langops import project_word
from cosynth.synthesis import synthesize_supervisor


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification pass."""

    outcome: str  # "holds" | "violated"
    counterexample: Optional[Word] = None

    def holds(self) -> bool:
        return self.outcome == "holds"

    def render(self) -> str:
        parts = [f"outcome: {self.outcome}"]
        if self.counterexample is not None:
            parts.append("counterexample: " + (" ".join(self.counterexample) or "-"))
        return "\n".join(parts) + "\n"


def _with_free_events(dfas: list[Dfa], prop: Dfa) -> list[Dfa]:
    """*dfas* and, when the property owns events that none of them does, a
    universal operand over those events, so that they may always occur."""
    owned = {e for dfa in dfas for e in dfa.alphabet.events}
    free = prop.alphabet.restrict(e for e in prop.alphabet.events if e not in owned)
    return dfas + [universal_dfa(free)] if free.events else dfas


def weakest_assumption(module: Dfa, prop: Dfa, interface: EventAlphabet) -> Dfa:
    """The weakest assumption over the interface alphabet, built directly.

    A word t is admitted iff no globally runnable behaviour that projects
    into the prefixes of t lets the module violate the property.  The
    violating projections form a regular set B: the walk of the module (as
    a prefix constraint) with the property, which moves along its own
    transitions at each pair the walk reaches and whose missing transitions
    lead to the absorbing, unmarked sink ``None``, labelled by the interface
    events and accepting where the property is unmarked.  The result is the
    complement of B·Σ*, read off one subset walk of that NFA and minimised.
    """
    for e in interface.events:
        if e not in module.alphabet and e not in prop.alphabet:
            raise InputError(f"interface event {e!r} unknown to module and property")
    operands = _with_free_events([module], prop)
    product = _Product(operands, _union_events(operands))
    transitions, prop_marked = prop.transitions, prop.marked
    # per product event: the event when the property owns it, and its label
    steps = [(e if e in prop.alphabet else None, e if e in interface else None)
             for e in product.events]
    start = (product.initial, prop.initial)
    nfa: dict[tuple[tuple[int, Optional[str]], Optional[str]], set[tuple[int, Optional[str]]]] = {}
    order = [start]
    seen = {start}
    for pair in order:
        t, qp = pair
        if qp not in prop_marked:
            continue  # violation is absorbing for the trigger set
        for a, nt in product.moves(t):
            e, label = steps[a]
            nxt = (nt, qp if e is None else transitions.get((qp, e)))
            nfa.setdefault((pair, label), set()).add(nxt)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    # the complement of B·Σ*: a subset that holds a violating pair gets no
    # moves and no mark; every other subset is marked, and a word the subset
    # walk cannot follow has no prefix in B, so it goes to a marked sink
    subsets, succ = _subset_walk(nfa, {start}, interface)
    sink = len(subsets)
    events = range(len(interface.events))
    admitted = [all(qp in prop_marked for _, qp in subset) for subset in subsets]
    moves = []
    for ok, out in zip(admitted, succ):
        targets = dict(out)
        moves.append([(a, targets.get(a, sink)) for a in events] if ok else [])
    moves.append([(a, sink) for a in events])
    return _minimize_numbered(moves, admitted + [True], interface)


def sym_n_check(assumptions: Sequence[Dfa], prop: Dfa) -> Optional[Word]:
    """Premise n+1 of the symmetric rule: the composed complement languages
    must stay inside the property; None if they do, else a witness word."""
    if not assumptions:
        raise InputError("need at least one assumption")
    return product_violation([complement(a) for a in assumptions], prop)[0]


def analyze_counterexample(t: Word, modules: Sequence[Dfa], prop: Dfa) -> bool:
    """Whether t is a common violating word: the property rejects its
    projection of t and every module accepts its own."""
    if accepts(prop, project_word(t, prop.alphabet.events)):
        return False
    return all(accepts(m, project_word(t, m.alphabet.events)) for m in modules)


def is_live(dfa: Dfa) -> bool:
    """True if the marked language is infinite (unbounded behaviour): the
    minimal automaton, which is trim, contains a cycle."""
    t = minimize(dfa)
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

    The result is the largest prefix-closed language left: one numbered
    walk from the initial state along the moves into marked states, the
    cut move left out, every state it reaches marked, handed to the integer
    core of :func:`cosynth.automata.minimize`.  If the initial state is
    unmarked the language is empty.
    """
    if not w:
        raise InputError("cannot cut the empty observation")
    m = minimize(plan)
    state = m.initial
    for symbol in w:
        cut = (state, symbol)
        state = m.transitions[cut]
    if m.initial not in m.marked:
        return minimize(empty_dfa(m.alphabet))
    edges, marked = _out_edges(m), m.marked

    def step(q: str) -> list[tuple[int, str]]:
        return [(a, q2) for a, e, q2 in edges.get(q, ()) if q2 in marked and (q, e) != cut]

    order, succ = _numbered_walk(m.initial, step)
    return _minimize_numbered(succ, [True] * len(order), m.alphabet)


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
    """One verification pass: the direct product check, in one walk that
    stops at its first witness.

    Returns the verdict and the number of states of the agents' product
    that the walk expanded before it decided: all of the reachable ones
    when the pass holds.  A violated verdict's counterexample is a word of
    the agents' product, so every agent accepts its projection and the
    property rejects it.
    """
    witness, expanded = product_violation(modules, prop)
    if witness is None:
        return Verdict("holds"), expanded
    return Verdict("violated", witness), expanded


def assume_guarantee(modules: Sequence[Dfa], prop: Dfa) -> tuple[Verdict, list[Dfa], bool]:
    """One pass of the symmetric assume-guarantee rule over the agents.

    Returns the verdict, the weakest assumptions over the default interface
    alphabets, and whether the rule was inconclusive so that the product
    check decided.  The rule is sound, so a holds verdict of the rule needs
    no product walk; a violated verdict's counterexample is realisable by
    every agent.
    """
    assumptions = [
        weakest_assumption(module, prop, default_interface(i, modules, prop))
        for i, module in enumerate(modules)
    ]
    premise = sym_n_check(assumptions, prop)
    if premise is None:
        return Verdict("holds"), assumptions, False
    if analyze_counterexample(premise, modules, prop):
        return Verdict("violated", premise), assumptions, False
    # the rule was inconclusive: the assumptions are already weakest, so a
    # spurious counterexample cannot be refined away
    verdict, _ = verify(modules, prop)
    return verdict, assumptions, True


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


@dataclass
class RefinementRound:
    """One verification pass: its verdict, the number of plan-product states
    its walk expanded before it decided (all of the reachable ones when it
    holds), and the (agent, cut word) repairs of the phase it opened."""

    verdict: Verdict
    product_states: int
    repairs: list[tuple[int, Word]] = field(default_factory=list)
    # every pass is the product check, so none falls back to it from a proof
    # rule; kept because the benchmark's tracer (perfbench/tracing.py) reads it
    fallback = False


@dataclass
class RefinementResult:
    status: str  # "holds" | "infeasible" | "undecided" (out of rounds)
    # the supervisors: each is supC(K) ⊆ K ⊆ L(G), so its closed loop with
    # the plant G is the supervisor itself
    plans: list[Dfa]
    rounds: list[RefinementRound]
    counterexample: Optional[Word] = None

    @property
    def refinement_rounds(self) -> int:
        return sum(1 for r in self.rounds if r.repairs)


def verify_and_refine(
    specs: Sequence[Dfa],
    plants: Sequence[Dfa],
    prop: Dfa,
    max_rounds: int = 100,
) -> RefinementResult:
    """The mission-layer loop: synthesise, verify, re-synthesise until clean.

    Each agent's supervisor is :func:`~cosynth.synthesis.synthesize_supervisor`
    of its spec and plant, whose language lies inside both; the supervisors
    are verified as the agents' plans.  The function is looked up in this
    module's namespace at each call, so a wrapper put there sees every
    synthesis.  A violated verdict opens a repair phase that eliminates
    joint violations one counterexample at a time.
    Each repair cuts exactly one agent's mission and strictly shrinks its
    plan, by construction: :func:`cut_behavior` only deletes a transition
    of the plan, and supC(K) ⊆ K.  The updated
    supervisors then go through verification again, and when the repair
    phase's last re-check found no violation it has already decided that
    pass, which is recorded as holding without walking the product again.
    Every pass and re-check is one walk of the plan product that stops at
    its first witness and moves the property along its own transitions at
    the pairs it reaches, so no pass pays for the property's states ×
    events; each round records the tuples its walk expanded.
    Rounds with at least one repair count as refinement rounds.

    *max_rounds* bounds the repairs of the whole run.  The passes need no
    bound of their own: a repair phase ends only at a clean re-check, so
    there are at most two.  A run that needs more repairs ends
    ``"undecided"`` with the counterexample it could not repair; one whose
    violation no repair removes ends ``"infeasible"``, and so does one in
    which some agent's first supervisor is empty, with no pass and no
    counterexample.
    """
    specs = list(specs)
    plans = [synthesize_supervisor(spec, plant) for spec, plant in zip(specs, plants)]
    if not all(plan.marked for plan in plans):  # an empty supervisor: passes hold vacuously
        return RefinementResult("infeasible", plans, [])
    verdict, product_states = verify(plans, prop)
    record = RefinementRound(verdict, product_states)
    rounds = [record]
    ce = verdict.counterexample
    while ce is not None:
        if len(record.repairs) >= max_rounds:
            return RefinementResult("undecided", plans, rounds, ce)
        repair = choose_repair(ce, plans)
        if repair is None:
            return RefinementResult("infeasible", plans, rounds, ce)
        agent, cut_word, new_spec = repair
        specs[agent] = new_spec
        record.repairs.append((agent, cut_word))
        # the cut mission and its supervisor are minimal, so each is
        # empty exactly when no state is marked
        if not new_spec.marked:
            return RefinementResult("infeasible", plans, rounds, ce)
        new_plan = synthesize_supervisor(new_spec, plants[agent])
        if not new_plan.marked:
            # not even the idle behaviour is enforceable for this agent
            return RefinementResult("infeasible", plans, rounds, ce)
        plans[agent] = new_plan
        ce, expanded = product_violation(plans, prop)
        if ce is None:  # the clean re-check decides the next pass
            rounds.append(RefinementRound(Verdict("holds"), expanded))
    return RefinementResult("holds", plans, rounds)
