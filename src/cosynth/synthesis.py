"""Supervisor synthesis: supC of a local mission, built or learned.

The supervisor for a prefix-closed local mission is the supremal
controllable sublanguage of the mission w.r.t. the plant automaton.  There
is one way to ask for it: ``synthesize_supervisor(spec, plant)``, or
``learn_supervisor(spec, plant)`` for the learned route.  The spec's own
alphabet, with its controllable partition, is the synthesis alphabet; the
plant must own the same events.  The spec is minimised and checked once,
and the result, canonical from either route, is returned as it is: every
state marked, or the canonical empty automaton with a warning.
:func:`synthesize_supervisor` builds it with :func:`cosynth.langops.sup_c`,
in one walk of the plant × mission product.  When the paper's learning
trace is wanted (``cosynth supc``), :func:`learn_supervisor` learns it with
L*: the teacher answers membership against the mission language and
dynamically cuts behaviours that a growing set of uncontrollably illegal
words proves unenforceable:

  round 1      answer = t in L_i
  round j > 1  answer = previous answer and t not in D_ui(C_j) Σ*

Counterexamples come from the symmetric difference between the conjecture
and the reference language K_j = L_i minus the accumulated cuts.

Uncontrollably illegal words are discovered two ways: every membership
query is intercepted and tested for the pattern s·u (s legal, u a non-empty
uncontrollable suffix, s·u plant-generated but illegal), and at conjecture
time the plant × mission × K_j product is searched for the shortest
undiscovered such word.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from cosynth.automata import (
    EPSILON,
    Dfa,
    InputError,
    InvariantError,
    Word,
    language_empty,
    language_equal,
    minimize,
    _minimize_numbered,
    _numbered_walk,
    _out_edges,
)
from cosynth.langops import _minimal_is_prefix_closed, sup_c, widen_like
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


class SupervisorTeacher:
    """Teacher of the supervisor learner; one instance per synthesis session.

    Discovered uncontrollably illegal words are generalised before cutting:
    stripping a witness yields prefixes whose joint plant and mission state
    identifies every behaviour the two models cannot tell apart, and the
    whole class is cut at once.  A finite set of witness words alone cannot
    produce the supremal cut when a doomed state has infinitely many access
    words, so the class cut is what makes the session terminate.  Each
    membership query walks its word once through the plant and mission, and
    every test of the query reads that walk.  The walks follow the partial
    automata: a missing move leads to the absorbing sink ``None``, which no
    move leaves and which is never marked.
    """

    def __init__(self, spec: Dfa, plant: Dfa):
        self.spec = spec
        self.plant = widen_like(plant, spec.alphabet)
        self.alphabet = spec.alphabet
        self.illegal = IllegalBehaviorSet()
        self.k = minimize(spec)
        self._answers: dict[Word, int] = {}
        self._condemned: set[tuple[str, str]] = set()
        self.k_history: list[Dfa] = [self.k]

    @property
    def generation(self) -> int:
        return self.illegal.generation

    def membership(self, word: Word) -> int:
        cached = self._answers.get(word)
        if cached is not None:
            return cached
        pairs = self._walk(word)
        self._intercept(word, pairs)
        g, l = pairs[-1]
        answer = 0
        if l in self.spec.marked:
            if g is None:
                raise InputError(
                    f"spec word outside the plant language: {' '.join(word) or 'ε'}"
                )
            answer = 0 if any(p in self._condemned for p in pairs) else 1
        self._answers[word] = answer
        return answer

    def conjecture(self, dfa: Dfa) -> Optional[Word]:
        # each recorded word condemns the class of a word of K_j, so the
        # audits end within one per plant × spec class, sinks included
        bound = (len(self.plant.states) + 1) * (len(self.spec.states) + 1) + 1
        for _ in range(bound):
            found = self._audit()
            if found is None:
                break
            self._record(found, self._walk(found))
        else:
            raise InvariantError("illegal-behaviour audit did not stabilise")
        # the shortest, lexicographically least word of L(conjecture) Δ K_j
        return language_equal(dfa, self.k)

    def _walk(self, word: Word) -> list[tuple[Optional[str], Optional[str]]]:
        """The (plant state, spec state) pair after each prefix of *word*, ε first."""
        plant_moves, spec_moves = self.plant.transitions, self.spec.transitions
        g, l = self.plant.initial, self.spec.initial
        pairs = [(g, l)]
        for symbol in word:
            g = plant_moves.get((g, symbol))
            l = spec_moves.get((l, symbol))
            pairs.append((g, l))
        return pairs

    def _stripped(self, word: Word) -> int:
        """Length of *word* without its longest uncontrollable suffix."""
        cut = len(word)
        while cut > 0 and word[cut - 1] in self.alphabet.uncontrollable:
            cut -= 1
        return cut

    # -- discovery of uncontrollably illegal words ----------------------

    def _intercept(self, word: Word, pairs: list[tuple[Optional[str], Optional[str]]]) -> None:
        if not word or pairs[-1][1] in self.spec.marked:
            return
        cut = self._stripped(word)
        if cut == len(word) or pairs[-1][0] is None:
            return
        if any(l in self.spec.marked for _, l in pairs[cut:-1]):
            self._record(word, pairs)

    def _record(self, word: Word, pairs: list[tuple[Optional[str], Optional[str]]]) -> None:
        if not self.illegal.add(word):
            return
        self._answers.clear()
        # condemn the plant/spec classes of the prefixes left by stripping
        # an uncontrollable suffix (possibly empty) from the word
        for g, l in pairs[self._stripped(word):]:
            if g is not None and l in self.spec.marked:
                self._condemned.add((g, l))
        # K_j: the spec's words none of whose prefixes reaches a condemned
        # class, from one walk of the plant × spec pairs along the spec's
        # moves; the condemned pairs get no moves and no mark
        plant_moves, spec_edges = self.plant.transitions, _out_edges(self.spec)
        condemned = self._condemned

        def step(pair: tuple[Optional[str], str]) -> list[tuple[int, tuple[Optional[str], str]]]:
            if pair in condemned:
                return []
            g, l = pair
            return [(a, (plant_moves.get((g, e)), nl)) for a, e, nl in spec_edges.get(l, ())]

        order, succ = _numbered_walk((self.plant.initial, self.spec.initial), step)
        self.k = _minimize_numbered(
            succ, [p not in condemned and p[1] in self.spec.marked for p in order], self.alphabet)
        self.k_history.append(self.k)

    def _audit(self) -> Optional[Word]:
        """Shortest word s·u with s in K, u uncontrollable and non-empty,
        s·u plant-generated but illegal; None when no such word remains."""
        if language_empty(self.k):
            return None
        plant_moves, spec_moves = self.plant.transitions, self.spec.transitions
        k_moves, k_marked, spec_marked = self.k.transitions, self.k.marked, self.spec.marked
        uncontrollable = self.alphabet.uncontrollable
        start = (self.plant.initial, self.spec.initial, self.k.initial, 0)
        if self.k.initial not in k_marked:
            return None
        seen = {start}
        queue: deque[tuple[tuple, Word]] = deque([(start, EPSILON)])
        while queue:
            (g, l, k, phase), word = queue.popleft()
            for e in self.alphabet.events:
                if phase == 1 and e not in uncontrollable:
                    continue
                ng = plant_moves.get((g, e))
                nl = spec_moves.get((l, e))
                nk = k_moves.get((k, e))
                w = word + (e,)
                options = []
                if phase == 0 and nk in k_marked:
                    options.append(0)
                if e in uncontrollable:
                    options.append(1)
                for nphase in options:
                    if nphase == 1 and ng is not None and nl not in spec_marked:
                        return w
                    nxt = (ng, nl, nk, nphase)
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append((nxt, w))
        return None


def _checked_spec(spec: Dfa) -> Dfa:
    minimal = minimize(spec)
    if not _minimal_is_prefix_closed(minimal):
        raise InputError("supervisor synthesis requires a prefix-closed mission spec")
    if not minimal.marked:
        raise InputError("supervisor synthesis requires a non-empty mission spec")
    return minimal


def _warn_if_empty(supervisor: Dfa) -> Dfa:
    if not supervisor.marked:
        warnings.warn("supremal controllable sublanguage is empty; returning the empty supervisor")
    return supervisor


def synthesize_supervisor(spec: Dfa, plant: Dfa) -> Dfa:
    """Supervisor whose closed-loop behaviour is supC of the mission *spec*.

    The spec's own alphabet, with its controllable partition, is the
    synthesis alphabet; the plant must own the same events.  The language
    is built directly by :func:`sup_c` over the plant automaton, minimal and
    canonical with every state marked (supervisor convention).  An empty
    result is the canonical empty automaton, returned with a warning rather
    than an error.
    """
    return _warn_if_empty(sup_c(_checked_spec(spec), plant))


def learn_supervisor(spec: Dfa, plant: Dfa, log: Optional[LearnLog] = None) -> Dfa:
    """Learn the supervisor with L* and the illegal-behaviour teacher.

    Same contract as :func:`synthesize_supervisor`; ``log`` records the
    MQ/EQ/CE trace of the session.
    """
    spec_dfa = _checked_spec(spec)
    return _warn_if_empty(learn(SupervisorTeacher(spec_dfa, plant), spec_dfa.alphabet, log=log))
