"""Observation-table learner: table mechanics, conjectures, and full sessions."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosynth
from cosynth import lstar
from cosynth.automata import (
    Dfa,
    EventAlphabet,
    complete,
    empty_dfa,
    language_empty,
    language_equal,
    minimize,
    universal_dfa,
)
from cosynth.lstar import (
    LearnLog,
    LearnerFault,
    ObservationTable,
    close_and_make_consistent,
    conjecture_dfa,
    learn,
)
from conftest import DfaTeacher, random_dfa, step_word

AB = EventAlphabet(("a", "b"))


def a_star() -> Dfa:
    return Dfa(("0",), AB, "0", {("0", "a"): "0"}, frozenset({"0"}))


def test_table_invariants_maintained():
    teacher = DfaTeacher(a_star())
    table = ObservationTable(AB)
    close_and_make_consistent(table, teacher)
    table.check_invariants()
    assert () in table.S and () in table.E


def test_table_invariants_hold_under_optimized_python():
    # the invariants are explicit raises, so ``python -O`` keeps them
    script = textwrap.dedent("""
        from cosynth.automata import EventAlphabet
        from cosynth.lstar import ObservationTable

        if __debug__:
            raise SystemExit("not optimized")
        table = ObservationTable(EventAlphabet(("a", "b")), S=[(), ("a", "b")], E=[()])
        table.T = {w: 0 for w in table.domain()}
        table.check_invariants()
    """)
    src = Path(cosynth.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert "cosynth.automata.InvariantError: S not prefix-closed at ('a', 'b')" in done.stderr


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_table_invariants_hold_after_every_close(seed):
    # S prefix-closed, E suffix-closed and T total hold by construction, so
    # close_and_make_consistent does not re-check them: check them after
    # every close of a whole learning session on a random target
    rng = random.Random(seed)
    events = ("a", "b", "c")[: rng.randint(1, 3)]
    target = minimize(random_dfa(rng, 6, events))
    closes = 0

    def checked_close(table, teacher):
        nonlocal closes
        closed = close_and_make_consistent(table, teacher)
        closed.check_invariants()
        closes += 1
        return closed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lstar, "close_and_make_consistent", checked_close)
        got = learn(DfaTeacher(target), target.alphabet)
    assert language_equal(got, target) is None
    assert closes


def test_closing_a_star_extends_s():
    # over {a,b} the initial table is not closed: row(b) differs from row(ε)
    teacher = DfaTeacher(a_star())
    table = ObservationTable(AB)
    table.fill(teacher)
    assert table.find_unclosed() == ("b",)
    close_and_make_consistent(table, teacher)
    assert ("b",) in table.S


def test_already_closed_and_consistent_table_unchanged():
    teacher = DfaTeacher(universal_dfa(AB))
    table = ObservationTable(AB)
    close_and_make_consistent(table, teacher)
    s_before, e_before = list(table.S), list(table.E)
    close_and_make_consistent(table, teacher)
    assert table.S == s_before and table.E == e_before


def test_conjecture_universal_language():
    teacher = DfaTeacher(universal_dfa(AB))
    table = ObservationTable(AB)
    close_and_make_consistent(table, teacher)
    dfa = conjecture_dfa(table)
    assert len(dfa.states) == 1 and dfa.marked


def test_conjecture_a_star_two_states():
    teacher = DfaTeacher(a_star())
    table = ObservationTable(AB)
    close_and_make_consistent(table, teacher)
    dfa = conjecture_dfa(table)
    assert len(dfa.states) == 2  # live state plus sink
    assert dfa.is_total()


def test_conjecture_requires_closed_consistent():
    table = ObservationTable(AB)
    table.T = {(): 1, ("a",): 0, ("b",): 1}
    with pytest.raises(LearnerFault):
        conjecture_dfa(table)


def test_conjecture_consistent_with_table_entries():
    # a conjecture from a closed and consistent table accepts exactly the
    # table's 1-entries, on every table of a learning session
    rng = random.Random(17)
    tables = 0
    for target in [a_star()] + [minimize(random_dfa(rng, 6, ("a", "b", "c")[: rng.randint(1, 3)]))
                                for _ in range(40)]:
        teacher = DfaTeacher(target)
        table = ObservationTable(target.alphabet)
        while True:
            close_and_make_consistent(table, teacher)
            dfa = conjecture_dfa(table)
            for w in table.domain():
                state = step_word(dfa, w)
                assert state is not None and (state in dfa.marked) == (table.T[w] == 1), w
            tables += 1
            counterexample = teacher.conjecture(dfa)
            if counterexample is None:
                break
            table.add_prefixes(counterexample)
    assert tables >= 60


def test_learn_empty_language():
    teacher = DfaTeacher(empty_dfa(AB))
    got = learn(teacher, AB)
    assert language_empty(got)
    assert teacher.equivalence_queries == 1


def test_learn_ab_cycle_with_trace():
    target = minimize(Dfa(("p", "q"), AB, "p", {("p", "a"): "q", ("q", "b"): "p"},
                          frozenset({"p", "q"})))
    teacher = DfaTeacher(target)
    log = LearnLog()
    got = learn(teacher, AB, log=log)
    assert language_equal(got, target) is None
    assert len(got.states) == 2
    completed, _ = complete(got)
    assert len(completed.states) == 3  # two live states plus the sink
    assert teacher.equivalence_queries <= 3
    text = log.text()
    assert "MQ" in text and "EQ" in text


def test_learn_minimality_and_query_bounds_random():
    rng = random.Random(31)
    for _ in range(60):
        events = ("a", "b", "c")[: rng.randint(2, 3)]
        alphabet = EventAlphabet(events)
        target = minimize(random_dfa(rng, 6, events))
        teacher = DfaTeacher(target)
        got = learn(teacher, alphabet)
        assert language_equal(got, target) is None
        assert len(got.states) == len(target.states)
        assert teacher.equivalence_queries <= max(1, len(target.states))


def test_conjecture_sizes_strictly_increase():
    rng = random.Random(32)

    class CountingTeacher(DfaTeacher):
        def __init__(self, target):
            super().__init__(target)
            self.sizes = []

        def conjecture(self, dfa):
            self.sizes.append(len(dfa.states))
            return super().conjecture(dfa)

    for _ in range(25):
        target = minimize(random_dfa(rng, 6, ("a", "b")))
        teacher = CountingTeacher(target)
        learn(teacher, AB)
        assert all(b > a for a, b in zip(teacher.sizes, teacher.sizes[1:]))


def test_inconsistent_teacher_detected():
    class Liar:
        generation = 0

        def membership(self, word):
            return 1  # claims the universal language...

        def conjecture(self, dfa):
            return ("a",)  # ...but rejects every conjecture on a member word

    with pytest.raises(LearnerFault):
        learn(Liar(), AB)
