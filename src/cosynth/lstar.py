"""Angluin-style active learning with an observation table.

The engine drives any Teacher that answers membership queries and judges
conjectured automata.  Teachers may mutate their answer function between
rounds (the supervisor-synthesis teacher does); they signal this by bumping
``generation``, upon which the engine re-queries every cell of the table.
Within one generation the teacher must answer consistently with a single
regular language.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from cosynth.automata import (
    EPSILON,
    Dfa,
    EventAlphabet,
    InvariantError,
    Word,
    minimize,
)


MAX_ROUNDS = 10_000  # conjectures one learning run may make


class Teacher(Protocol):
    def membership(self, word: Word) -> int: ...

    def conjecture(self, dfa: Dfa) -> Optional[Word]: ...

    @property
    def generation(self) -> int: ...


class LearnerFault(RuntimeError):
    """The teacher contradicted itself within one generation."""


@dataclass
class ObservationTable:
    """The (S, E, T) triple: S prefix-closed rows, E suffix-closed columns."""

    alphabet: EventAlphabet
    S: list[Word] = field(default_factory=lambda: [EPSILON])
    E: list[Word] = field(default_factory=lambda: [EPSILON])
    T: dict[Word, int] = field(default_factory=dict)

    def check_invariants(self) -> None:
        if EPSILON not in self.S or EPSILON not in self.E:
            raise InvariantError("ε missing from S or E")
        s_set = set(self.S)
        for s in self.S:
            for i in range(len(s)):
                if s[:i] not in s_set:
                    raise InvariantError(f"S not prefix-closed at {s}")
        e_set = set(self.E)
        for e in self.E:
            for i in range(1, len(e) + 1):
                if e[i:] not in e_set:
                    raise InvariantError(f"E not suffix-closed at {e}")
        for w in self.domain():
            if w not in self.T:
                raise InvariantError(f"T not total at {w}")

    def rows(self) -> list[Word]:
        out = list(self.S)
        seen = set(self.S)
        for s in self.S:
            for a in self.alphabet.events:
                w = s + (a,)
                if w not in seen:
                    seen.add(w)
                    out.append(w)
        return out

    def domain(self) -> list[Word]:
        return [r + e for r in self.rows() for e in self.E]

    def row(self, s: Word) -> tuple[int, ...]:
        return tuple(self.T[s + e] for e in self.E)

    def fill(self, teacher: Teacher) -> None:
        for w in self.domain():
            if w not in self.T:
                self.T[w] = 1 if teacher.membership(w) else 0

    def refill(self, teacher: Teacher) -> None:
        self.T.clear()
        self.fill(teacher)

    def find_unclosed(self) -> Optional[Word]:
        known = {self.row(s) for s in self.S}
        for s in self.S:
            for a in self.alphabet.events:
                if self.row(s + (a,)) not in known:
                    return s + (a,)
        return None

    def find_inconsistent(self) -> Optional[Word]:
        for i, s1 in enumerate(self.S):
            for s2 in self.S[i + 1 :]:
                if self.row(s1) != self.row(s2):
                    continue
                for a in self.alphabet.events:
                    for e in self.E:
                        if self.T[s1 + (a,) + e] != self.T[s2 + (a,) + e]:
                            return (a,) + e
        return None

    def add_prefixes(self, word: Word) -> None:
        present = set(self.S)
        for i in range(len(word) + 1):
            p = word[:i]
            if p not in present:
                present.add(p)
                self.S.append(p)


def close_and_make_consistent(table: ObservationTable, teacher: Teacher) -> ObservationTable:
    """Extend S and E until the table is both closed and consistent.

    Witnesses are added exactly as the base algorithm prescribes: an
    unclosed row s·σ joins S, an inconsistency witness σ·e joins E.
    Restarts from scratch if the teacher generation changes during a fill;
    the searches for unclosed and inconsistent rows read the table alone and
    make no query.  The table's invariants hold by construction and are not
    re-checked here: S stays prefix-closed (an unclosed row extends a row of
    S, and :meth:`ObservationTable.add_prefixes` adds every prefix), E stays
    suffix-closed (each witness is σ·e with e in E), and :meth:`fill` makes
    T total.  :meth:`ObservationTable.check_invariants` is the tests' oracle.
    """
    while True:
        gen = teacher.generation
        table.fill(teacher)
        if teacher.generation != gen:
            table.refill(teacher)
            continue
        unclosed = table.find_unclosed()
        if unclosed is not None:
            table.S.append(unclosed)
            continue
        witness = table.find_inconsistent()
        if witness is not None:
            table.E.append(witness)
            continue
        return table


def conjecture_dfa(table: ObservationTable) -> Dfa:
    """Candidate DFA from a closed and consistent table.

    States are the distinct row functions, the initial state is row(ε),
    marked states are rows with T(s) = 1, and transitions follow
    row(s) --σ--> row(sσ).  The result is total over the alphabet, and
    by Angluin's construction it accepts a table word s·e exactly when
    T(s·e) = 1; the tests check that on the tables of random targets.
    """
    if table.find_unclosed() is not None or table.find_inconsistent() is not None:
        raise LearnerFault("conjecture requested from a table that is not closed and consistent")
    row_name: dict[tuple[int, ...], str] = {}
    access: dict[str, Word] = {}
    for s in table.S:
        r = table.row(s)
        if r not in row_name:
            row_name[r] = f"r{len(row_name)}"
            access[row_name[r]] = s
    transitions = {}
    marked = set()
    for r, name in row_name.items():
        s = access[name]
        if table.T[s] == 1:
            marked.add(name)
        for a in table.alphabet.events:
            transitions[(name, a)] = row_name[table.row(s + (a,))]
    return Dfa(
        tuple(row_name.values()),
        table.alphabet,
        row_name[table.row(EPSILON)],
        transitions,
        frozenset(marked),
    )


@dataclass
class LearnLog:
    """Plain-text trace: one line per membership query, conjecture, or counterexample."""

    lines: list[str] = field(default_factory=list)

    def mq(self, word: Word, answer: int) -> None:
        self.lines.append(f"MQ {' '.join(word) or '-'} = {answer}")

    def eq(self, states: int, counterexample: Optional[Word]) -> None:
        verdict = "accept" if counterexample is None else "ce " + (" ".join(counterexample) or "-")
        self.lines.append(f"EQ states={states} -> {verdict}")

    def ce(self, word: Word) -> None:
        self.lines.append(f"CE {' '.join(word) or '-'}")

    def gen(self, generation: int) -> None:
        self.lines.append(f"GEN {generation}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _LoggingTeacher:
    def __init__(self, inner: Teacher, log: LearnLog):
        self._inner = inner
        self._log = log

    def membership(self, word: Word) -> int:
        answer = 1 if self._inner.membership(word) else 0
        self._log.mq(word, answer)
        return answer

    def conjecture(self, dfa: Dfa) -> Optional[Word]:
        return self._inner.conjecture(dfa)

    @property
    def generation(self) -> int:
        return self._inner.generation


def learn(
    teacher: Teacher,
    alphabet: EventAlphabet,
    log: Optional[LearnLog] = None,
) -> Dfa:
    """Full learning loop; returns the minimal DFA for the teacher's language.

    Counterexamples are processed by adding all their prefixes to S.  The
    conjecture state count must strictly increase after every counterexample
    within a single teacher generation; a violation means the teacher
    answered inconsistently and raises :class:`LearnerFault`.
    """
    if log is not None:
        teacher = _LoggingTeacher(teacher, log)
    table = ObservationTable(alphabet)
    last_size: Optional[int] = None
    last_gen = teacher.generation
    for _ in range(MAX_ROUNDS):
        close_and_make_consistent(table, teacher)
        candidate = conjecture_dfa(table)
        if teacher.generation == last_gen and last_size is not None and len(candidate.states) <= last_size:
            raise LearnerFault(
                f"conjecture did not grow after a counterexample "
                f"({last_size} -> {len(candidate.states)} states); teacher inconsistent"
            )
        gen_before = teacher.generation
        counterexample = teacher.conjecture(candidate)
        if log is not None:
            log.eq(len(candidate.states), counterexample)
        if teacher.generation != gen_before or gen_before != last_gen:
            if log is not None:
                log.gen(teacher.generation)
            last_gen = teacher.generation
            last_size = None
            if counterexample is not None:
                table.add_prefixes(counterexample)
                if log is not None:
                    log.ce(counterexample)
            table.refill(teacher)
            continue
        if counterexample is None:
            return minimize(candidate)
        last_size = len(candidate.states)
        table.add_prefixes(counterexample)
        if log is not None:
            log.ce(counterexample)
    raise LearnerFault(f"learning did not converge within {MAX_ROUNDS} rounds")
