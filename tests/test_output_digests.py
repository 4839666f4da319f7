"""Byte-identity of the pipeline's outputs, pinned by sha256 digests.

``run_pipeline`` runs on the bundled case study and on the benchmark's
``escorts`` and ``ring`` instances (seed 1, generated into a temporary
directory by ``perfbench/generate.py``, which is imported read-only).  The
digest of ``report.txt``, of every artifact and of ``trace.txt`` must equal
the one stored in ``output_digests.json``.  The monolithic mission of
``escorts`` at three pairs is pinned too, since it is the largest automaton
the pipeline writes, and so is the ``report.txt`` of a whole run on that
instance: its pass verdicts, counterexamples and product-state counts come
from the violation walk over a 13 215-state mission.  So are the supervisor and the learning trace that
``cosynth supc --trace`` writes for each case-study spec against three
plants: the spec itself, and the spec with an uncontrollable escape to a
fresh state added at its last state, or at each state of its second half.

A deliberate output change regenerates the file with
``PYTHONPATH=src python tests/test_output_digests.py`` and says so in the
change log.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from cosynth.automata import Dfa, dfa_to_text, load_dfa, minimal_product, save_dfa
from cosynth.cli import main
from cosynth.fixtures import fixture_path
from cosynth.pipeline import PipelineConfig, global_alphabet_of, run_pipeline
from conftest import perfbench_generate

DIGESTS = Path(__file__).with_name("output_digests.json")
WORKLOADS = ("casestudy", "escorts", "ring")
SEED = 1


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests(workload: str, workdir: Path) -> dict[str, str]:
    """sha256 of every file one ``cosynth pipeline`` run writes, by file name."""
    files = perfbench_generate().build(workload, SEED, workdir / "inputs")
    report = run_pipeline(PipelineConfig.load(files.config), files.real_env, files.schedule,
                          stop_event="r")
    outdir = workdir / "out"
    report.save(outdir)
    return {p.name: _sha(p.read_bytes()) for p in sorted(outdir.iterdir())}


def mission_digest(workdir: Path, pairs: int = 3) -> str:
    """sha256 of ``mission.aut`` for an ``escorts`` instance of *pairs* pairs."""
    files = perfbench_generate().escorts(workdir / "inputs", pairs, SEED)
    config = PipelineConfig.load(files.config)
    components = [load_dfa(p) for p in config.mission_paths]
    mission = minimal_product(components, global_alphabet_of(config.agents))
    return _sha(dfa_to_text(mission).encode("utf-8"))


def escorts_report_digest(workdir: Path, pairs: int = 3) -> str:
    """sha256 of ``report.txt`` for a pipeline run on an ``escorts`` instance of *pairs* pairs."""
    files = perfbench_generate().escorts(workdir / "inputs", pairs, SEED)
    report = run_pipeline(PipelineConfig.load(files.config), files.real_env, files.schedule,
                          stop_event="r")
    report.save(workdir / "out")
    return _sha((workdir / "out" / "report.txt").read_bytes())


def _with_escapes(spec: Dfa, states) -> Dfa:
    """The spec, with every uncontrollable event that one of *states* lacks
    leading from it to a fresh state without moves."""
    transitions = dict(spec.transitions)
    uncontrollable = [e for e in spec.alphabet.events if e not in spec.alphabet.controllable]
    for q in states:
        for e in uncontrollable:
            transitions.setdefault((q, e), "x")
    return Dfa(spec.states + ("x",), spec.alphabet, spec.initial, transitions,
               frozenset(spec.states + ("x",)))


def supc_digests(workdir: Path) -> dict[str, str]:
    """sha256 of the supervisor and the trace of ``cosynth supc --trace`` for
    each case-study spec and plant, by "agent/plant/file"."""
    report = run_pipeline(PipelineConfig.load(fixture_path("casestudy.cfg")))
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for agent in ("agent1", "agent2", "agent3"):
        spec = report.artifacts[f"{agent}_spec.aut"]
        half = spec.states[len(spec.states) // 2:]
        plants = {"spec": spec, "last": _with_escapes(spec, spec.states[-1:]),
                  "half": _with_escapes(spec, half)}
        save_dfa(spec, workdir / "spec.aut")
        for name, plant in plants.items():
            save_dfa(plant, workdir / "plant.aut")
            assert main(["supc", str(workdir / "spec.aut"), str(workdir / "plant.aut"),
                         "-o", str(workdir / "sup.aut"), "--trace", str(workdir / "trace.txt")]) == 0
            for file in ("sup.aut", "trace.txt"):
                digests[f"{agent}/{name}/{file}"] = _sha((workdir / file).read_bytes())
    return digests


def _stored() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pipeline_outputs_match_stored_digests(workload, tmp_path):
    expected = _stored()["pipeline"][workload]
    actual = pipeline_digests(workload, tmp_path)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], f"{workload}: {name} changed"


def test_three_pair_escorts_mission_matches_stored_digest(tmp_path):
    assert mission_digest(tmp_path) == _stored()["escorts_pairs3_mission"]


def test_three_pair_escorts_report_matches_stored_digest(tmp_path):
    assert escorts_report_digest(tmp_path) == _stored()["escorts_pairs3_report"]


def test_supc_trace_and_supervisor_match_stored_digests(tmp_path):
    assert supc_digests(tmp_path) == _stored()["supc"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        stored = {
            "pipeline": {w: pipeline_digests(w, Path(tmp) / w) for w in WORKLOADS},
            "escorts_pairs3_mission": mission_digest(Path(tmp) / "pairs3"),
            "escorts_pairs3_report": escorts_report_digest(Path(tmp) / "pairs3-report"),
            "supc": supc_digests(Path(tmp) / "supc"),
        }
    DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {DIGESTS}\n")
