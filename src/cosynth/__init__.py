"""Automata-based synthesis of cooperative mission supervisors and motion plans.

The package is organised around immutable deterministic finite automata
(:mod:`cosynth.automata`), regular-language operations such as projection and
supremal controllable sublanguages (:mod:`cosynth.langops`), an observation
table learner (:mod:`cosynth.lstar`) with specialised teachers for supervisor
synthesis (:mod:`cosynth.synthesis`), verification with an assume-guarantee
mode (:mod:`cosynth.verification`) and motion planning (:mod:`cosynth.motion`),
plus a command line pipeline (:mod:`cosynth.cli`).
"""

from cosynth.automata import Dfa, EventAlphabet, Word

__all__ = ["Dfa", "EventAlphabet", "Word"]
__version__ = "0.1.0"
