"""Regular-language operations on top of the DFA core.

Natural projection, synchronous products via inverse projection,
separability, quotients, controllability and supremal controllable
sublanguages, the satisfaction relation between a system and a property,
and supremal prefix-closed sublanguages.

Everything here is a pure function over immutable automata.  Checks that can
fail return ``None`` on success and a shortest, lexicographically least
counterexample word otherwise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from cosynth.automata import (
    EPSILON,
    Dfa,
    EventAlphabet,
    InputError,
    Word,
    all_marked,
    complete,
    empty_dfa,
    extend_closure,
    language_equal,
    language_subset,
    minimize,
    parallel_compose_all,
    prefix_closure,
    subtract,
    trim,
    _determinize,
)


@dataclass(frozen=True)
class ProjectionSpec:
    """Natural projection from a source alphabet onto a target subset."""

    source: EventAlphabet
    target: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", tuple(self.target))
        for e in self.target:
            if e not in self.source:
                raise InputError(f"projection target event {e!r} not in source alphabet")


@dataclass(frozen=True)
class LanguageSpec:
    """A DFA read either through its marked language or its generated language."""

    dfa: Dfa
    interpretation: str = "marked"

    def __post_init__(self) -> None:
        if self.interpretation not in ("marked", "generated"):
            raise InputError("interpretation must be 'marked' or 'generated'")

    def resolve(self) -> Dfa:
        if self.interpretation == "generated":
            return all_marked(self.dfa)
        return self.dfa


def _as_marked(lang: "LanguageSpec | Dfa") -> Dfa:
    return lang.resolve() if isinstance(lang, LanguageSpec) else lang


def project_word(word: Sequence[str], target: Sequence[str]) -> Word:
    keep = set(target)
    return tuple(s for s in word if s in keep)


def project(dfa: Dfa, spec: "ProjectionSpec | Sequence[str]") -> Dfa:
    """DFA for { P(w) : w in L_m(dfa) } over the target alphabet.

    Out-of-target events are erased (become epsilon moves) and the result is
    determinised by subset construction, then minimised.
    """
    if isinstance(spec, ProjectionSpec):
        target = spec.target
        if spec.source.events != dfa.alphabet.events:
            raise InputError("projection source alphabet does not match the automaton")
    else:
        target = tuple(spec)
        for e in target:
            if e not in dfa.alphabet:
                raise InputError(f"projection target event {e!r} not in source alphabet")
    target_alphabet = EventAlphabet(
        tuple(e for e in dfa.alphabet.events if e in set(target)),
        dfa.alphabet.controllable & set(target),
    )
    nfa: dict[tuple[str, Optional[str]], set[str]] = {}
    keep = set(target)
    for (src, e), dst in dfa.transitions.items():
        label = e if e in keep else None
        nfa.setdefault((src, label), set()).add(dst)
    det = _determinize(nfa, {dfa.initial}, set(dfa.marked), target_alphabet)
    return minimize(det)


def widen_alphabet(dfa: Dfa, alphabet: EventAlphabet) -> Dfa:
    """Reinterpret over a larger alphabet without adding transitions (language preserved)."""
    for e in dfa.alphabet.events:
        if e not in alphabet:
            raise InputError(f"event {e!r} missing from the wider alphabet")
    return Dfa(dfa.states, alphabet, dfa.initial, dfa.transitions, dfa.marked)


def lift(dfa: Dfa, alphabet: EventAlphabet) -> Dfa:
    """Inverse projection: self-loop on every foreign event in every state."""
    for e in dfa.alphabet.events:
        if e not in alphabet:
            raise InputError(f"event {e!r} missing from the global alphabet")
    transitions = dict(dfa.transitions)
    foreign = [e for e in alphabet.events if e not in dfa.alphabet]
    for q in dfa.states:
        for e in foreign:
            transitions[(q, e)] = q
    return Dfa(dfa.states, alphabet, dfa.initial, transitions, dfa.marked)


def inverse_project_intersect(locals_: Sequence[Dfa], alphabet: EventAlphabet) -> Dfa:
    """Synchronous product of local languages as a DFA over the global alphabet."""
    if not locals_:
        raise InputError("need at least one local language")
    lifted = [lift(d, alphabet) for d in locals_]
    return minimize(parallel_compose_all(lifted))


def is_separable(
    lang: "LanguageSpec | Dfa", alphabets: Sequence[Sequence[str]]
) -> Optional[Word]:
    """None if L equals the synchronous product of its own projections.

    Otherwise a word in the symmetric difference (always on the product side,
    since L is contained in the product of its projections).
    """
    dfa = _as_marked(lang)
    union: list[str] = []
    for block in alphabets:
        for e in block:
            if e not in union:
                union.append(e)
    if not set(dfa.alphabet.events) <= set(union):
        raise InputError("alphabet blocks must cover the language's alphabet")
    wide = EventAlphabet(tuple(union), dfa.alphabet.controllable)
    widened = widen_alphabet(dfa, wide)
    projections = [project(widened, tuple(e for e in union if e in set(block))) for block in alphabets]
    product = inverse_project_intersect(projections, wide)
    return language_equal(widened, product)


def quotient(l1: Dfa, l2: Dfa) -> Dfa:
    """Accepts { s : exists t in L_m(l2) with st in L_m(l1) }.

    Realised on l1's structure: a state becomes marked iff some word of l2
    can be appended from it while ending in a marked state of l1.
    """
    if set(l1.alphabet.events) != set(l2.alphabet.events):
        raise InputError("quotient requires a shared alphabet")
    marked = set()
    for q in l1.states:
        probe = Dfa(l1.states, l1.alphabet, q, l1.transitions, l1.marked)
        if _nonempty_intersection(probe, l2):
            marked.add(q)
    return trim(Dfa(l1.states, l1.alphabet, l1.initial, l1.transitions, frozenset(marked)))


def _nonempty_intersection(a: Dfa, b: Dfa) -> bool:
    start = (a.initial, b.initial)
    if a.initial in a.marked and b.initial in b.marked:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        qa, qb = queue.popleft()
        for e in a.alphabet.events:
            na = a.transitions.get((qa, e))
            nb = b.transitions.get((qb, e))
            if na is None or nb is None:
                continue
            if na in a.marked and nb in b.marked:
                return True
            nxt = (na, nb)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def _uncontrollable_star(alphabet: EventAlphabet) -> Dfa:
    """DFA over the full alphabet accepting exactly the uncontrollable words."""
    transitions = {("0", e): "0" for e in alphabet.events if e in alphabet.uncontrollable}
    return Dfa(("0",), alphabet, "0", transitions, frozenset(("0",)))


def _uncontrollable_step(alphabet: EventAlphabet) -> Dfa:
    """DFA accepting exactly the length-one uncontrollable words."""
    transitions = {("0", e): "1" for e in alphabet.events if e in alphabet.uncontrollable}
    return Dfa(("0", "1"), alphabet, "0", transitions, frozenset(("1",)))


def is_controllable(spec: "LanguageSpec | Dfa", plant: Dfa) -> Optional[Word]:
    """None if closure(L) Σ_uc ∩ L(plant) ⊆ closure(L); else a witness s·σ_uc.

    The spec language must be contained in the plant's generated language.
    """
    spec_dfa = _as_marked(spec)
    if set(spec_dfa.alphabet.events) != set(plant.alphabet.events):
        raise InputError("spec and plant must share an alphabet")
    plant_gen = all_marked(plant)
    bad = language_subset(spec_dfa, plant_gen)
    if bad is not None:
        raise InputError(f"spec language not contained in the plant: {' '.join(bad) or 'ε'}")
    closure = prefix_closure(spec_dfa)
    uncontrollable = spec_dfa.alphabet.uncontrollable
    # walk closure × plant; a defined plant move on an uncontrollable event
    # that the closure cannot follow witnesses the violation
    start = (closure.initial, plant.initial)
    seen = {start}
    queue: deque[tuple[tuple[str, str], Word]] = deque([(start, EPSILON)])
    while queue:
        (qc, qp), word = queue.popleft()
        for e in spec_dfa.alphabet.events:
            np_ = plant.transitions.get((qp, e))
            if np_ is None:
                continue
            nc = closure.transitions.get((qc, e))
            if nc is None:
                if e in uncontrollable:
                    return word + (e,)
                continue
            nxt = (nc, np_)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (e,)))
    return None


def sup_c(spec: "LanguageSpec | Dfa", plant: Dfa) -> Dfa:
    """Supremal controllable sublanguage of a prefix-closed spec w.r.t. the plant.

    Computed by the closed form L − [(L(G) − L)/Σ_uc*]Σ* (Wonham and
    Ramadge, SIAM J. Control Optim. 1987).  The fixed point
    K_{j+1} = K_j − [(L(G) − K_j)/Σ_uc]Σ* of :func:`_supc_fixed_point`
    yields the same language and serves as the tests' reference.
    """
    spec_dfa = _as_marked(spec)
    if set(spec_dfa.alphabet.events) != set(plant.alphabet.events):
        raise InputError("spec and plant must share an alphabet")
    if language_equal(spec_dfa, prefix_closure(spec_dfa)) is not None:
        raise InputError("sup_c requires a prefix-closed spec")
    bad = language_subset(spec_dfa, all_marked(plant))
    if bad is not None:
        raise InputError(f"spec language not contained in the plant: {' '.join(bad) or 'ε'}")

    alphabet = spec_dfa.alphabet
    plant_gen = minimize(all_marked(widen_like(plant, alphabet)))
    return _supc_closed_form(minimize(spec_dfa), plant_gen, alphabet)


def widen_like(dfa: Dfa, alphabet: EventAlphabet) -> Dfa:
    """Same language, reindexed over an alphabet with identical event set."""
    if set(dfa.alphabet.events) != set(alphabet.events):
        raise InputError("alphabets must contain the same events")
    return Dfa(dfa.states, alphabet, dfa.initial, dfa.transitions, dfa.marked)


def _supc_closed_form(spec: Dfa, plant_gen: Dfa, alphabet: EventAlphabet) -> Dfa:
    illegal = subtract(plant_gen, spec)
    stripped = quotient(illegal, _uncontrollable_star(alphabet))
    cut = extend_closure(stripped)
    return minimize(subtract(spec, cut))


def _supc_fixed_point(spec: Dfa, plant_gen: Dfa, alphabet: EventAlphabet) -> Dfa:
    bound = len(spec.states) * len(plant_gen.states) + 1
    step = _uncontrollable_step(alphabet)
    current = spec
    for _ in range(bound):
        illegal = subtract(plant_gen, current)
        stripped = quotient(illegal, step)
        cut = extend_closure(stripped)
        nxt = minimize(subtract(current, cut))
        if language_equal(nxt, current) is None:
            return nxt
        current = nxt
    raise AssertionError(f"supC fixed point did not stabilise within {bound} iterations")


def satisfies(m: Dfa, p: Dfa) -> Optional[Word]:
    """None if every accepted word of m projects into L_m(p); else a witness.

    Requires Σ_P ⊆ Σ_M.  Implemented by running m in parallel with the
    completed property and searching for an accepted m-word whose property
    component is unmarked (the error state, in the prefix-closed case).
    """
    for e in p.alphabet.events:
        if e not in m.alphabet:
            raise InputError("property alphabet must be contained in the system alphabet")
    comp, _qe = complete(p)
    prop_events = set(p.alphabet.events)
    start = (m.initial, comp.initial)
    if m.initial in m.marked and comp.initial not in p.marked:
        return EPSILON
    seen = {start}
    queue: deque[tuple[tuple[str, str], Word]] = deque([(start, EPSILON)])
    while queue:
        (qm, qp), word = queue.popleft()
        for e in m.alphabet.events:
            nm = m.transitions.get((qm, e))
            if nm is None:
                continue
            np_ = comp.transitions[(qp, e)] if e in prop_events else qp
            w = word + (e,)
            if nm in m.marked and np_ not in p.marked:
                return w
            nxt = (nm, np_)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w))
    return None


def prefix_close_largest(l: Dfa) -> Dfa:
    """Supremal prefix-closed sublanguage: words all of whose prefixes are accepted."""
    if l.initial not in l.marked:
        return empty_dfa(l.alphabet)
    keep = set(l.marked)
    transitions = {k: v for k, v in l.transitions.items() if k[0] in keep and v in keep}
    states = tuple(q for q in l.states if q in keep)
    return trim(Dfa(states, l.alphabet, l.initial, transitions, frozenset(states)))
