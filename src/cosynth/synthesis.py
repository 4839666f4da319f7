"""Supervisor synthesis: supC of a local mission, built or learned.

The supervisor for a prefix-closed local mission is the supremal
controllable sublanguage of the mission w.r.t. the plant.  When the plant
is given as an automaton, :func:`synthesize_supervisor` builds it with
:func:`cosynth.langops.sup_c`, in one walk of the plant × mission product.
When the plant is known only through a membership oracle, or when the
paper's learning trace is wanted (``cosynth supc``), :func:`learn_supervisor`
learns it with L*: the teacher answers membership against the mission
language and dynamically cuts behaviours that a growing set of
uncontrollably illegal words proves unenforceable:

  round 1      answer = t in L_i
  round j > 1  answer = previous answer and t not in D_ui(C_j) Σ*

Counterexamples come from the symmetric difference between the conjecture
and the reference language K_j = L_i minus the accumulated cuts.

Uncontrollably illegal words are discovered two ways: every membership
query is intercepted and tested for the pattern s·u (s legal, u a non-empty
uncontrollable suffix, s·u plant-generated but illegal), and at conjecture
time the plant oracle is audited for the shortest undiscovered such word.
With a plant DFA the audit is exact; with a bare membership function it is
a bounded best-effort search.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from cosynth.automata import (
    EPSILON,
    Dfa,
    EventAlphabet,
    InputError,
    InvariantError,
    Word,
    accepts,
    all_marked,
    complete,
    empty_dfa,
    extend_closure,
    generates,
    language_empty,
    language_equal,
    minimize,
    subtract,
    words_dfa,
    _minimize_numbered,
    _Product,
)
from cosynth.langops import LanguageSpec, _as_marked, _minimal_is_prefix_closed, sup_c, widen_like
from cosynth.lstar import LearnLog, learn


@dataclass
class IllegalBehaviorSet:
    """Growing collection of uncontrollably illegal words; generations only add."""

    words: list[Word] = field(default_factory=list)
    generation: int = 1

    def add(self, word: Word) -> bool:
        if word in self.words:
            return False
        self.words.append(word)
        self.generation += 1
        return True


def d_ui(
    illegal: "IllegalBehaviorSet | Sequence[Word]",
    plant_member: Callable[[Word], bool],
    alphabet: EventAlphabet,
) -> set[Word]:
    """Plant words obtained by stripping an uncontrollable suffix (possibly empty)
    from some uncontrollably illegal word."""
    words = illegal.words if isinstance(illegal, IllegalBehaviorSet) else list(illegal)
    uncontrollable = alphabet.uncontrollable
    out: set[Word] = set()
    for w in words:
        cut = len(w)
        while True:
            prefix = w[:cut]
            if plant_member(prefix):
                out.add(prefix)
            if cut == 0 or w[cut - 1] not in uncontrollable:
                break
            cut -= 1
    return out


def ls_membership(
    t: Word,
    round_j: int,
    spec: Dfa,
    illegal: "IllegalBehaviorSet | Sequence[Word]",
    plant_member: Callable[[Word], bool],
) -> int:
    """Membership rule of the supervisor learner, unrolled across rounds.

    Round 1 answers membership in the mission language; later rounds also
    reject anything with a prefix in D_ui(C).  The cuts only ever turn
    answers from 1 to 0, so the unrolled form matches the recursive one.
    """
    if not accepts(spec, t):
        return 0
    if round_j <= 1:
        return 1
    stripped = d_ui(illegal, plant_member, spec.alphabet)
    for cut in range(len(t) + 1):
        if t[:cut] in stripped:
            return 0
    return 1


def ls_counterexample(conjecture: Dfa, k: Dfa) -> Optional[Word]:
    """Shortest, lexicographically least word in L(conjecture) Δ L(K)."""
    return language_equal(conjecture, k)


@dataclass
class SynthesisProblem:
    """Inputs of one supervisor synthesis: spec, partition, and a plant oracle."""

    spec: "LanguageSpec | Dfa"
    alphabet: EventAlphabet
    plant_membership: Optional[Callable[[Word], bool]] = None
    plant_dfa: Optional[Dfa] = None

    def member(self) -> Callable[[Word], bool]:
        if self.plant_membership is not None:
            return self.plant_membership
        if self.plant_dfa is not None:
            plant = self.plant_dfa
            return lambda w: all(s in plant.alphabet for s in w) and generates(plant, w)
        raise InputError("a plant membership source or plant DFA is required")


class SupervisorTeacher:
    """Teacher of the supervisor learner; one instance per synthesis session.

    Discovered uncontrollably illegal words are generalised before cutting:
    stripping a witness yields prefixes whose joint plant and mission state
    identifies every behaviour the two models cannot tell apart, and the
    whole class is cut at once.  A finite set of witness words alone cannot
    produce the supremal cut when a doomed state has infinitely many access
    words, so the class cut is what makes the session terminate.  Without a
    plant automaton (membership oracle only) the cuts stay word-based and
    synthesis is best-effort within the audit bound.
    """

    def __init__(self, spec: Dfa, alphabet: EventAlphabet,
                 plant_member: Callable[[Word], bool],
                 plant_dfa: Optional[Dfa] = None):
        self.spec = spec
        self.alphabet = alphabet
        self.plant_member = plant_member
        self.plant_dfa = plant_dfa
        self.illegal = IllegalBehaviorSet()
        self.k = minimize(spec)
        self._answers: dict[Word, int] = {}
        self._cut: Optional[Dfa] = None
        self._cut_classes: set[tuple[str, str]] = set()
        self.k_history: list[Dfa] = [self.k]
        self._spec_completion = complete(spec)
        if plant_dfa is not None:
            self._plant_completion = complete(all_marked(widen_like(plant_dfa, alphabet)))
        else:
            self._plant_completion = None

    @property
    def generation(self) -> int:
        return self.illegal.generation

    def membership(self, word: Word) -> int:
        self._intercept(word)
        cached = self._answers.get(word)
        if cached is not None:
            return cached
        answer = 1 if accepts(self.spec, word) else 0
        if answer and not self.plant_member(word):
            raise InputError(
                f"spec word outside the plant language: {' '.join(word) or 'ε'}"
            )
        if answer and self._is_cut(word):
            answer = 0
        self._answers[word] = answer
        return answer

    def conjecture(self, dfa: Dfa) -> Optional[Word]:
        bound = 10_000
        if self._plant_completion is not None:
            plant_states = len(self._plant_completion[0].states)
            bound = plant_states * len(self._spec_completion[0].states) + 1
        for _ in range(bound):
            found = self._audit()
            if found is None:
                break
            self._record(found)
        else:
            raise InvariantError("illegal-behaviour audit did not stabilise")
        return ls_counterexample(dfa, self.k)

    # -- discovery of uncontrollably illegal words ----------------------

    def _intercept(self, word: Word) -> None:
        if accepts(self.spec, word) or not word:
            return
        uncontrollable = self.alphabet.uncontrollable
        cut = len(word)
        while cut > 0 and word[cut - 1] in uncontrollable:
            cut -= 1
        if cut == len(word):
            return
        legal_split = any(accepts(self.spec, word[:k]) for k in range(cut, len(word)))
        if legal_split and self.plant_member(word):
            self._record(word)

    def _record(self, word: Word) -> None:
        if self.illegal.add(word):
            self._answers.clear()
            self._rebuild()

    def _is_cut(self, word: Word) -> bool:
        if self._plant_completion is not None and self._cut_classes:
            plant, _ = self._plant_completion
            specc, _ = self._spec_completion
            g, l = plant.initial, specc.initial
            if (g, l) in self._cut_classes:
                return True
            for symbol in word:
                g = plant.transitions[(g, symbol)]
                l = specc.transitions[(l, symbol)]
                if (g, l) in self._cut_classes:
                    return True
            return False
        return self._cut is not None and accepts(self._cut, word)

    def _rebuild(self) -> None:
        if self._plant_completion is not None:
            self._rebuild_class_cut()
        else:
            stripped = d_ui(self.illegal, self.plant_member, self.alphabet)
            self._cut = extend_closure(words_dfa(sorted(stripped), self.alphabet))
            self.k = minimize(subtract(self.spec, self._cut))
        self.k_history.append(self.k)

    def _rebuild_class_cut(self) -> None:
        plant, plant_qe = self._plant_completion
        specc, spec_qe = self._spec_completion
        uncontrollable = self.alphabet.uncontrollable
        for w in self.illegal.words:
            cut = len(w)
            while True:
                prefix = w[:cut]
                g, l = plant.initial, specc.initial
                for symbol in prefix:
                    g = plant.transitions[(g, symbol)]
                    l = specc.transitions[(l, symbol)]
                if g != plant_qe and l != spec_qe and l in self.spec.marked:
                    self._cut_classes.add((g, l))
                if cut == 0 or w[cut - 1] not in uncontrollable:
                    break
                cut -= 1
        # K_j: the spec's words none of whose prefixes reaches a condemned
        # plant/spec class; the condemned pairs get no moves and no mark
        plant_number = {q: n for n, q in enumerate(plant.states)}
        spec_number = {q: n for n, q in enumerate(specc.states)}
        condemned = {(plant_number[g], spec_number[l]) for g, l in self._cut_classes}
        order, succ = _Product((plant, specc), self.alphabet.events).explore()
        self.k = _minimize_numbered(
            [[] if t in condemned else out for t, out in zip(order, succ)],
            [t not in condemned and specc.states[t[1]] in self.spec.marked for t in order],
            self.alphabet)

    def _audit(self) -> Optional[Word]:
        """Shortest word s·u with s in K, u uncontrollable and non-empty,
        s·u plant-generated but illegal; None when no such word remains."""
        if language_empty(self.k):
            return None
        if self.plant_dfa is not None:
            return self._audit_exact()
        return self._audit_bounded()

    def _audit_exact(self) -> Optional[Word]:
        plant, plant_qe = self._plant_completion
        spec_c, spec_qe = self._spec_completion
        k_c, _ = complete(self.k)
        uncontrollable = self.alphabet.uncontrollable
        start = (plant.initial, spec_c.initial, k_c.initial, 0)
        if k_c.initial not in self.k.marked:
            return None
        seen = {start}
        queue: deque[tuple[tuple[str, str, str, int], Word]] = deque([(start, EPSILON)])
        while queue:
            (g, l, k, phase), word = queue.popleft()
            for e in self.alphabet.events:
                if phase == 1 and e not in uncontrollable:
                    continue
                ng = plant.transitions[(g, e)]
                nl = spec_c.transitions[(l, e)]
                nk = k_c.transitions[(k, e)]
                w = word + (e,)
                options = []
                if phase == 0 and nk in self.k.marked:
                    options.append(0)
                if e in uncontrollable:
                    options.append(1)
                for nphase in options:
                    if nphase == 1 and ng != plant_qe and (nl == spec_qe or nl not in self.spec.marked):
                        return w
                    nxt = (ng, nl, nk, nphase)
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append((nxt, w))
        return None

    def _audit_bounded(self) -> Optional[Word]:
        depth = 2 * len(self.spec.states) + 2
        spec_c, spec_qe = self._spec_completion
        k_c, _ = complete(self.k)
        uncontrollable = self.alphabet.uncontrollable
        start = (spec_c.initial, k_c.initial, 0)
        if k_c.initial not in self.k.marked:
            return None
        seen = {start}
        queue: deque[tuple[tuple[str, str, int], Word]] = deque([(start, EPSILON)])
        while queue:
            (l, k, phase), word = queue.popleft()
            if len(word) >= depth:
                continue
            for e in self.alphabet.events:
                if phase == 1 and e not in uncontrollable:
                    continue
                nl = spec_c.transitions[(l, e)]
                nk = k_c.transitions[(k, e)]
                w = word + (e,)
                options = []
                if phase == 0 and nk in self.k.marked:
                    options.append(0)
                if e in uncontrollable:
                    options.append(1)
                for nphase in options:
                    if nphase == 1 and (nl == spec_qe or nl not in self.spec.marked) and self.plant_member(w):
                        return w
                    nxt = (nl, nk, nphase)
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append((nxt, w))
        return None


def _checked_spec(problem: SynthesisProblem) -> Dfa:
    spec_dfa = minimize(widen_like(_as_marked(problem.spec), problem.alphabet))
    if not _minimal_is_prefix_closed(spec_dfa):
        raise InputError("supervisor synthesis requires a prefix-closed mission spec")
    if language_empty(spec_dfa):
        raise InputError("supervisor synthesis requires a non-empty mission spec")
    return spec_dfa


def _as_supervisor(language: Dfa, alphabet: EventAlphabet) -> Dfa:
    supervisor = minimize(language)
    if language_empty(supervisor):
        warnings.warn("supremal controllable sublanguage is empty; returning the empty supervisor")
        return empty_dfa(alphabet)
    if set(supervisor.marked) != set(supervisor.states):
        raise InvariantError("supervisor states must all be marked")
    return supervisor


def synthesize_supervisor(problem: SynthesisProblem) -> Dfa:
    """Supervisor whose closed-loop behaviour is supC of the mission.

    With a plant DFA the language is built directly by :func:`sup_c`; with
    a bare plant membership oracle it is learned by
    :func:`learn_supervisor`.  The returned automaton has every state
    marked (supervisor convention).  An empty result is returned with a
    warning rather than an error.
    """
    if problem.plant_dfa is None:
        return learn_supervisor(problem)
    spec_dfa = _checked_spec(problem)
    plant = widen_like(problem.plant_dfa, problem.alphabet)
    return _as_supervisor(sup_c(spec_dfa, plant), problem.alphabet)


def learn_supervisor(problem: SynthesisProblem, log: Optional[LearnLog] = None) -> Dfa:
    """Learn the supervisor with L* and the illegal-behaviour teacher.

    Same contract as :func:`synthesize_supervisor`; ``log`` records the
    MQ/EQ/CE trace of the session.
    """
    spec_dfa = _checked_spec(problem)
    teacher = SupervisorTeacher(
        spec_dfa, problem.alphabet, problem.member(), plant_dfa=problem.plant_dfa
    )
    return _as_supervisor(learn(teacher, problem.alphabet, log=log), problem.alphabet)
