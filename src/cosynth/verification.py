"""Verification of the composed mission plans, with mission re-synthesis.

One verification pass is the direct product check: the agents' plans and
the property are walked together on the fly, breadth first over tuples of
plan states and a property state, without building the product automaton;
a missing property transition leads to an implicit, absorbing, unmarked
sink.  The shortest violating word, realisable by every agent, is the
counterexample.  The walk is the DFA core's one violation walk,
:func:`cosynth.automata.product_violation`; :func:`check_triple` runs it on
an assumption and a module, and :func:`sym_n_check` on the complemented
assumptions.  The plans the refinement loop verifies are the supervisors
themselves: each is supC(K) ⊆ K ⊆ L(G), so its closed loop with the plant G
is the supervisor.

The paper's compositional mode is :func:`assume_guarantee`, which the
``cosynth verify`` command runs.  It builds, per agent, the weakest
environment assumption over that agent's interface alphabet by the direct
construction of Giannakopoulou, Păsăreanu and Barringer (ASE 2002), from the
core's product steps of the module next to the property's table, then
discharges the symmetric n-module proof rule: if the composed complements of
all assumptions stay inside the property, the composed system satisfies it.
When the rule produces a counterexample the word is simulated on every
agent against the complemented property: a word every agent can follow is a
genuine joint violation; a word some agent rejects is an artefact of the
proof rule.  The rule is sound but not complete for arbitrary interface
alphabets, so an inconclusive pass falls back to the product check, and a
concluded one is confirmed by it.

The invariants that hold by construction are not re-checked at run time:
a product witness is a word of every plan that the property rejects, a
repair shrinks its plan, and a weakest assumption passes its own premise.
The tests assert each of them as a property.

Re-synthesis cuts counterexample projections from the local missions (see
:func:`choose_repair`): agents that observed nothing of the violation are
exonerated, and among the involved agents the cut is placed, walking
backwards from the event that committed the violation, on the first agent it
does not reduce to a finite stub.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    InputError,
    InvariantError,
    Word,
    accepts,
    all_marked,
    complement,
    extend_closure,
    language_empty,
    minimize,
    prefix_closure,
    product_violation,
    trim,
    universal_dfa,
    _determinize,
    _Product,
    _property_table,
    _union_events,
    _with_table,
)
from cosynth.langops import prefix_close_largest, project_word


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
    behaviour restricted to prefixes of accepted words): both enter the
    violation walk with every state marked, so an empty assumption still
    blocks only its own events.  The property's events that neither owns
    stay free, and the property is violated exactly when it leaves its
    marked states.
    """
    operands = [all_marked(prefix_closure(assumption)), all_marked(module)]
    return product_violation(_with_free_events(operands, prop), prop)[0]


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
    a prefix constraint) with the property, whose missing transitions lead
    to an implicit, absorbing, unmarked sink, labelled by the interface
    events and accepting where the property is unmarked.  The result is the
    complement of B·Σ*, minimised.
    """
    for e in interface.events:
        if e not in module.alphabet and e not in prop.alphabet:
            raise InputError(f"interface event {e!r} unknown to module and property")
    operands = _with_free_events([module], prop)
    product = _Product(operands, _union_events(operands))
    prop_initial, columns, prop_marked = _property_table(prop)
    steps = [(columns.get(e), e if e in interface else None) for e in product.events]
    start = (product.initial, prop_initial)
    nfa: dict[tuple[tuple, Optional[str]], set[tuple]] = {}
    order = [start]
    seen = {start}
    for pair in order:
        t, qp = pair
        if not prop_marked[qp]:
            continue  # violation is absorbing for the trigger set
        for a, nt in product.moves(t):
            column, label = steps[a]
            nxt = (nt, qp if column is None else column[qp])
            nfa.setdefault((pair, label), set()).add(nxt)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    accepting = {pair for pair in order if not prop_marked[pair[1]]}
    bad = _determinize(nfa, {start}, accepting, interface)
    return minimize(complement(extend_closure(bad)))


def sym_n_check(assumptions: Sequence[Dfa], prop: Dfa) -> Optional[Word]:
    """Premise n+1 of the symmetric rule: the composed complement languages
    must stay inside the property; None if they do, else a witness word."""
    if not assumptions:
        raise InputError("need at least one assumption")
    return product_violation([complement(a) for a in assumptions], prop)[0]


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
    check decided.  A holds verdict of the rule is confirmed by the product
    check; a violated verdict's counterexample is realisable by every agent.
    """
    assumptions = [
        weakest_assumption(module, prop, default_interface(i, modules, prop))
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
        raise InvariantError(
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
    status: str  # "holds" | "infeasible"
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
    synthesize,
    max_rounds: int = 100,
) -> RefinementResult:
    """The mission-layer loop: synthesise, verify, re-synthesise until clean.

    ``synthesize(spec, plant)`` must return the supervisor for one agent,
    whose language lies inside the spec's and the plant's; the supervisors
    are verified as the agents' plans.  A violated verdict opens a repair
    phase that eliminates joint violations one counterexample at a time.
    Each repair cuts exactly one agent's mission and strictly shrinks its
    plan, by construction: :func:`cut_behavior` only deletes a transition
    of the plan, and supC(K) ⊆ K.  The updated
    supervisors then go through verification again, and when the repair
    phase's last re-check found no violation it has already decided that
    pass, which is recorded as holding without walking the product again.
    Every pass and re-check is one walk of the plan product that stops at
    its first witness; each round records the tuples its walk expanded.
    Rounds with at least one repair count as refinement rounds.
    """
    specs = list(specs)
    # every pass and every repair re-check walks the same property, so its
    # table is built once, on a copy that the caller never sees
    prop = _with_table(prop)
    plans = [synthesize(spec, plant) for spec, plant in zip(specs, plants)]
    rounds: list[RefinementRound] = []
    # the expanded count of a repair phase's last re-check, which found no
    # violation and so already decided the next pass
    clean: Optional[int] = None
    for _ in range(max_rounds):
        if clean is None:
            verdict, product_states = verify(plans, prop)
        else:
            verdict, product_states = Verdict("holds"), clean
        record = RefinementRound(verdict, product_states)
        rounds.append(record)
        if verdict.holds():
            return RefinementResult("holds", plans, rounds)
        ce = verdict.counterexample
        while ce is not None:
            if len(record.repairs) >= max_rounds:
                return RefinementResult("infeasible", plans, rounds, ce)
            repair = choose_repair(ce, plans)
            if repair is None:
                return RefinementResult("infeasible", plans, rounds, ce)
            agent, cut_word, new_spec = repair
            specs[agent] = new_spec
            record.repairs.append((agent, cut_word))
            if language_empty(new_spec):
                return RefinementResult("infeasible", plans, rounds, ce)
            new_plan = synthesize(new_spec, plants[agent])
            if language_empty(new_plan):
                # not even the idle behaviour is enforceable for this agent
                return RefinementResult("infeasible", plans, rounds, ce)
            plans[agent] = new_plan
            ce, clean = product_violation(plans, prop)
    return RefinementResult("infeasible", plans, rounds,
                            rounds[-1].verdict.counterexample if rounds else None)
