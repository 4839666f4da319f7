"""Byte-identity of the pipeline's outputs, pinned by sha256 digests.

``run_pipeline`` runs on the bundled case study and on the benchmark's
``escorts`` and ``ring`` instances (seed 1, generated into a temporary
directory by ``perfbench/generate.py``, which is imported read-only).  The
digest of ``report.txt``, of every artifact and of ``trace.txt`` must equal
the one stored in ``output_digests.json``.  The monolithic mission of
``escorts`` at three pairs is pinned too, since it is the largest automaton
the pipeline writes.

A deliberate output change regenerates the file with
``PYTHONPATH=src python tests/test_output_digests.py`` and says so in the
change log.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cosynth.automata import dfa_to_text, load_dfa, minimal_product
from cosynth.pipeline import PipelineConfig, global_alphabet_of, run_pipeline

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("output_digests.json")
WORKLOADS = ("casestudy", "escorts", "ring")
SEED = 1


def _generate():
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", ROOT / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests(workload: str, workdir: Path) -> dict[str, str]:
    """sha256 of every file one ``cosynth pipeline`` run writes, by file name."""
    files = _generate().build(workload, SEED, workdir / "inputs")
    report = run_pipeline(PipelineConfig.load(files.config), files.real_env, files.schedule,
                          stop_event="r")
    outdir = workdir / "out"
    report.save(outdir)
    return {p.name: _sha(p.read_bytes()) for p in sorted(outdir.iterdir())}


def mission_digest(workdir: Path, pairs: int = 3) -> str:
    """sha256 of ``mission.aut`` for an ``escorts`` instance of *pairs* pairs."""
    files = _generate().escorts(workdir / "inputs", pairs, SEED)
    config = PipelineConfig.load(files.config)
    components = [load_dfa(p) for p in config.mission_paths]
    mission = minimal_product(components, global_alphabet_of(config.agents))
    return _sha(dfa_to_text(mission).encode("utf-8"))


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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        stored = {
            "pipeline": {w: pipeline_digests(w, Path(tmp) / w) for w in WORKLOADS},
            "escorts_pairs3_mission": mission_digest(Path(tmp) / "pairs3"),
        }
    DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {DIGESTS}\n")
