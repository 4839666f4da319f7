"""Regular-language operations on top of the DFA core.

Natural projection and the mission decomposition built on it, supremal
controllable sublanguages, and the satisfaction relation between a system
and a property (also decided factor by factor).

Everything here is a pure function over immutable automata.  Checks that can
fail return ``None`` on success and a shortest, lexicographically least
counterexample word otherwise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from cosynth.automata import (
    Dfa,
    EventAlphabet,
    InputError,
    InvariantError,
    Word,
    all_marked,
    language_subset,
    minimal_product,
    minimize,
    parallel_compose_all,
    product_violation,
    shortest_marked,
    words_dfa,
    _canonical,
    _determinize,
    _minimize_numbered,
    _numbered_walk,
    _out_edges,
    _subset_walk,
)


def project_word(word: Sequence[str], target: Sequence[str]) -> Word:
    keep = set(target)
    return tuple(s for s in word if s in keep)


def project(dfa: Dfa, target: Sequence[str]) -> Dfa:
    """Canonical minimal DFA for { P(w) : w in L_m(dfa) } over the target alphabet.

    The target keeps the automaton's event order.  Out-of-target events are
    erased (become epsilon moves), and the subsets that the subset
    construction numbers go straight to the integer core of :func:`minimize`.
    """
    for e in target:
        if e not in dfa.alphabet:
            raise InputError(f"projection target event {e!r} not in source alphabet")
    return _minimal_erasure(dfa, target)


def _erasure_nfa(dfa: Dfa, target: EventAlphabet) -> dict[tuple[str, Optional[str]], set[str]]:
    """*dfa* as an epsilon-NFA whose events outside *target* are erased."""
    nfa: dict[tuple[str, Optional[str]], set[str]] = {}
    for (src, e), dst in dfa.transitions.items():
        label = e if e in target else None
        nfa.setdefault((src, label), set()).add(dst)
    return nfa


def _erase(dfa: Dfa, target: Iterable[str]) -> Dfa:
    """Subset construction for the projection onto *target*, not minimised.

    An automaton that loses no event is returned as it is.
    """
    target_alphabet = dfa.alphabet.restrict(target)
    if len(target_alphabet.events) == len(dfa.alphabet.events):
        return dfa
    return _determinize(_erasure_nfa(dfa, target_alphabet), {dfa.initial}, set(dfa.marked),
                        target_alphabet)


def _minimal_erasure(dfa: Dfa, target: Iterable[str]) -> Dfa:
    """``minimize(_erase(dfa, target))``, with the numbered subsets handed
    straight to the integer core of :func:`minimize`, so no subset is named."""
    target_alphabet = dfa.alphabet.restrict(target)
    if len(target_alphabet.events) == len(dfa.alphabet.events):
        return minimize(dfa)
    order, succ = _subset_walk(_erasure_nfa(dfa, target_alphabet), {dfa.initial},
                               target_alphabet)
    return _minimize_numbered(succ, [not s.isdisjoint(dfa.marked) for s in order],
                              target_alphabet)


def _lemma_products(automata: Sequence[Dfa]) -> Callable[[Iterable[str]], list[Dfa]]:
    """For an event set Σ', a function giving the operands P_{Σ'∩Σ_j}(A_j) of
    P_{Σ'∪Σ_shared}(A_1 ‖ … ‖ A_m).

    Σ_shared holds every event that two or more of *automata* own.  By the
    projection lemma, if Σ' holds Σ_shared then P_{Σ'}(A_1 ‖ … ‖ A_m) =
    ‖_j P_{Σ'∩Σ_j}(A_j) (Wonham and Cai, *Supervisory Control of
    Discrete-Event Systems*, 2019), so the function erases each automaton on
    its own onto (Σ' ∪ Σ_shared) ∩ Σ_j, once per kept event set, and the
    caller composes the small results.
    """
    owners = Counter(e for a in automata for e in a.alphabet.events)
    shared = {e for e, n in owners.items() if n > 1}
    erased: dict[tuple[int, frozenset[str]], Dfa] = {}

    def operands(events: Iterable[str]) -> list[Dfa]:
        keep = shared.union(events)
        parts = []
        for j, a in enumerate(automata):
            kept = frozenset(e for e in a.alphabet.events if e in keep)
            if (j, kept) not in erased:
                erased[(j, kept)] = _erase(a, kept)
            parts.append(erased[(j, kept)])
        return parts

    return operands


@dataclass(frozen=True)
class Decomposition:
    """Each agent's local spec and the size of the minimal local product it came from."""

    specs: list[Dfa]
    product_states: list[int]


def decompose(
    components: Sequence[Dfa],
    agent_alphabets: Sequence[EventAlphabet],
    global_alphabet: EventAlphabet,
) -> Decomposition:
    """Each agent's projection of the mission L_1 ‖ … ‖ L_m, built from its components.

    Spec i is P_{Σ_i}(L_1 ‖ … ‖ L_m) over the global alphabet, minimised and
    reindexed over ``agent_alphabets[i]``.  It never builds the mission: the
    components are erased onto Σ_i and the events they share
    (:func:`_lemma_products`), :func:`minimal_product` composes the results
    over those events in the global order, as it builds the mission, and
    the minimal local product is projected onto Σ_i.  Agent events that no
    component uses never occur, as in the widened mission.  Minimising over
    the global event order gives the same canonical automaton as projecting
    the minimised mission.
    """
    local_operands = _lemma_products(components)
    specs: list[Dfa] = []
    sizes: list[int] = []
    for alphabet in agent_alphabets:
        parts = local_operands(alphabet.events)
        events = {e for part in parts for e in part.alphabet.events}.union(alphabet.events)
        product = minimal_product(parts, global_alphabet.restrict(events))
        sizes.append(len(product.states))
        specs.append(widen_like(_minimal_erasure(product, alphabet.events), alphabet))
    return Decomposition(specs, sizes)


def satisfies_modular(plans: Sequence[Dfa], components: Sequence[Dfa],
                      alphabet: EventAlphabet) -> Optional[Word]:
    """``satisfies(‖plans, mission)`` for the mission ‖components over *alphabet*,
    decided component by component without building either product.

    The mission forbids the events of *alphabet* that no component owns,
    so it is the product of the components and one more that accepts only ε
    over those events.  A language satisfies a product iff its projection
    onto each factor's alphabet stays inside that factor (the conjunctive
    modular check of de Queiroz and Cury, WODES 2000), and the projection
    of ‖plans onto Σ_j comes from the plans erased onto Σ_j and the events
    they share (:func:`_lemma_products`).  Every component event must be in
    *alphabet*, and every event of *alphabet* in some plan.

    Returns None if the plans satisfy the mission.  Otherwise it returns a
    word accepted by ‖plans whose projection leaves the first violated
    factor: the local check's shortest, lexicographically least witness,
    lifted to the least word of ‖plans that projects onto it.
    """
    owned = {e for c in components for e in c.alphabet.events}
    for e in owned:
        if e not in alphabet:
            raise InputError(f"event {e!r} missing from the wider alphabet")
    plan_events = {e for p in plans for e in p.alphabet.events}
    for e in alphabet.events:
        if e not in plan_events:
            raise InputError("property alphabet must be contained in the system alphabet")
    free = alphabet.restrict(e for e in alphabet.events if e not in owned)
    factors = list(components)
    if free.events:
        factors.append(Dfa(("0",), free, "0", {}, frozenset(("0",))))
    local_operands = _lemma_products(plans)
    for factor in factors:
        product = parallel_compose_all(local_operands(factor.alphabet.events))
        witness = satisfies(product, factor)
        if witness is not None:
            # the witness is a word of P_{Σ'}(‖plans): lift it to ‖plans
            lifted = shortest_marked(
                parallel_compose_all([*plans, words_dfa([witness], product.alphabet)]))
            if lifted is None:
                raise InvariantError(f"projected witness {' '.join(witness) or 'ε'} "
                                     f"has no preimage in the plans' product")
            return lifted
    return None


def sup_c(spec: Dfa, plant: Dfa) -> Dfa:
    """Supremal controllable sublanguage of a prefix-closed spec w.r.t. the plant.

    Built in one walk of the plant × spec product with a backward sweep over
    its uncontrollable moves (:func:`_supc_walk`).  It is the language of the
    closed form L − [(L(G) − L)/Σ_uc*]Σ* (Wonham and Ramadge, SIAM J.
    Control Optim. 1987) and of the fixed point
    K_{j+1} = K_j − [(L(G) − K_j)/Σ_uc]Σ*, which the tests compare it
    against.  The result is minimal and canonical.
    """
    if set(spec.alphabet.events) != set(plant.alphabet.events):
        raise InputError("spec and plant must share an alphabet")
    minimal = minimize(spec)
    if not _minimal_is_prefix_closed(minimal):
        raise InputError("sup_c requires a prefix-closed spec")
    if plant is minimal:
        return minimal  # the plant generates K itself, so nothing escapes K
    bad = language_subset(minimal, all_marked(plant))
    if bad is not None:
        raise InputError(f"spec language not contained in the plant: {' '.join(bad) or 'ε'}")
    return _supc_walk(minimal, plant, spec.alphabet)


def _minimal_is_prefix_closed(minimal: Dfa) -> bool:
    """Whether the output of :func:`minimize` accepts a prefix-closed language.

    Every state of a minimal automaton reaches a marked one, so a word that
    reaches an unmarked state is the prefix of an accepted word: the
    language is prefix-closed iff no state is marked (it is empty) or every
    state is.
    """
    return not minimal.marked or len(minimal.marked) == len(minimal.states)


def widen_like(dfa: Dfa, alphabet: EventAlphabet) -> Dfa:
    """Same language, reindexed over an alphabet with identical event set.

    An automaton already over *alphabet* is returned as it is, so a
    minimised one keeps its canonical record.  So does one reindexed over
    the same events in the same order: only the controllable split changes,
    and the canonical numbering follows the event order alone.
    """
    if dfa.alphabet == alphabet:
        return dfa
    if set(dfa.alphabet.events) != set(alphabet.events):
        raise InputError("alphabets must contain the same events")
    widened = Dfa(dfa.states, alphabet, dfa.initial, dfa.transitions, dfa.marked)
    if alphabet.events == dfa.alphabet.events and getattr(dfa, "_canonical", False):
        return _canonical(widened)
    return widened


def _supc_walk(spec: Dfa, plant: Dfa, alphabet: EventAlphabet) -> Dfa:
    """supC(K) for a minimal prefix-closed spec K ⊆ L(G), in one walk of G × K.

    One numbered walk over the reachable (plant state, spec state) pairs
    follows the plant moves that the spec also takes.  A pair is bad when
    the plant enables an uncontrollable event there that the spec does not
    take, and a backward sweep over the uncontrollable moves marks every
    pair that reaches a bad one.  A word s of K lies in (L(G) − K)/Σ_uc*
    exactly when its pair is bad, so the good pairs, all marked, are
    supC(K); the bad pairs go to the integer core of :func:`minimize`
    unmarked and without moves, which drops them together with the moves
    into them (Cassandras and Lafortune, *Introduction to Discrete Event
    Systems*, 2008, §3.5).
    """
    if spec.initial not in spec.marked:
        return spec  # K is empty, and a minimal empty K is the canonical empty automaton
    uncontrollable = [e not in alphabet.controllable for e in alphabet.events]
    plant_edges, spec_moves = _out_edges(plant, alphabet), spec.transitions
    bad: list[bool] = []

    def step(pair: tuple[str, str]) -> list[tuple[int, tuple[str, str]]]:
        g, k = pair
        out = []
        escapes = False
        for a, e, ng in plant_edges.get(g, ()):
            nk = spec_moves.get((k, e))
            if nk is None:
                escapes = escapes or uncontrollable[a]
            else:
                out.append((a, (ng, nk)))
        bad.append(escapes)
        return out

    order, succ = _numbered_walk((plant.initial, spec.initial), step)
    # for each pair, the pairs that reach it by one uncontrollable move
    back: list[list[int]] = [[] for _ in order]
    for p, out in enumerate(succ):
        for a, n in out:
            if uncontrollable[a]:
                back[n].append(p)
    stack = [p for p, flag in enumerate(bad) if flag]
    while stack:
        for p in back[stack.pop()]:
            if not bad[p]:
                bad[p] = True
                stack.append(p)
    return _minimize_numbered([[] if flag else out for flag, out in zip(bad, succ)],
                              [not flag for flag in bad], alphabet)


def satisfies(m: Dfa, p: Dfa) -> Optional[Word]:
    """None if every accepted word of m projects into L_m(p); else a witness.

    Requires Σ_P ⊆ Σ_M.  The witness is the shortest, lexicographically
    least one in m's event order, found by
    :func:`cosynth.automata.product_violation` on m alone.
    """
    for e in p.alphabet.events:
        if e not in m.alphabet:
            raise InputError("property alphabet must be contained in the system alphabet")
    return product_violation([m], p)[0]
