"""Command line surface: subcommands, exit codes, diagnostics, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cosynth
from cosynth.automata import (
    Dfa,
    EventAlphabet,
    accepts,
    dfa_to_text,
    language_equal,
    load_dfa,
    save_dfa,
)
from cosynth.cli import main
from cosynth.fixtures import fixture_path
from conftest import cycle_dfa, lang_set, perfbench_generate, reference_mission, word_dfa

AU = EventAlphabet(("a", "u"), frozenset({"a"}))


@pytest.fixture
def chain_files(tmp_path):
    plant = Dfa(("0", "1", "2"), AU, "0", {("0", "a"): "1", ("1", "u"): "2"},
                frozenset({"0", "1", "2"}))
    spec = word_dfa(("a",), AU)
    plant_p = tmp_path / "plant.aut"
    spec_p = tmp_path / "spec.aut"
    save_dfa(plant, plant_p)
    save_dfa(spec, spec_p)
    return spec_p, plant_p


def test_compose_self_is_language_equal(tmp_path, chain_files):
    spec_p, _ = chain_files
    out = tmp_path / "out.aut"
    assert main(["compose", str(spec_p), str(spec_p), "-o", str(out)]) == 0
    assert language_equal(load_dfa(out), load_dfa(spec_p)) is None


def test_compose_minimize_writes_the_minimal_product(tmp_path):
    left = Dfa(("0", "1"), EventAlphabet(("b", "a"), frozenset({"a"})), "0",
               {("0", "a"): "1", ("1", "b"): "0"}, frozenset({"0"}))
    right = Dfa(("0", "1"), EventAlphabet(("c", "a")), "0",
                {("0", "c"): "1", ("1", "a"): "0", ("0", "a"): "0"}, frozenset({"0", "1"}))
    save_dfa(left, tmp_path / "left.aut")
    save_dfa(right, tmp_path / "right.aut")
    out = tmp_path / "out.aut"
    assert main(["compose", str(tmp_path / "left.aut"), str(tmp_path / "right.aut"),
                 "--minimize", "-o", str(out)]) == 0
    expected = reference_mission([left, right], left.alphabet.union(right.alphabet))
    assert out.read_text(encoding="utf-8") == dfa_to_text(expected)


def test_project_command(tmp_path):
    ab = EventAlphabet(("a", "b"))
    src = tmp_path / "cyc.aut"
    save_dfa(cycle_dfa(("a", "b"), ab), src)
    out = tmp_path / "proj.aut"
    assert main(["project", str(src), "--events", "a", "-o", str(out)]) == 0
    got = load_dfa(out)
    assert accepts(got, ("a", "a"))


def test_complement_command(tmp_path, chain_files):
    spec_p, _ = chain_files
    out = tmp_path / "co.aut"
    assert main(["complement", str(spec_p), "-o", str(out)]) == 0
    got = load_dfa(out)
    assert not accepts(got, ("a",)) and accepts(got, ("u",))


def test_supc_command_learns_the_supervisor(tmp_path, chain_files):
    spec_p, plant_p = chain_files
    out = tmp_path / "sup.aut"
    trace = tmp_path / "supc.log"
    assert main(["supc", str(spec_p), str(plant_p), "-o", str(out),
                 "--trace", str(trace)]) == 0
    assert lang_set(load_dfa(out), 3) == {()}
    assert "GEN" in trace.read_text() or "EQ" in trace.read_text()


def test_plan_command_infeasible_exits_1(tmp_path, capsys):
    # the mission demands a region change the environment cannot make
    mission = cycle_dfa(("go", "back"), EventAlphabet(("back", "go")))
    save_dfa(mission, tmp_path / "m.aut")
    (tmp_path / "labels.pi").write_text("bot go R2\nbot back R3\n", encoding="utf-8")
    (tmp_path / "env.env").write_text(
        "regions: R1 R2 R3\ndoors: d\nadjacency:\nR1 R2\ndoormap:\nR1 R2 d\ninitial:\nbot R1\n",
        encoding="utf-8",
    )
    code = main(["plan", str(tmp_path / "m.aut"), "--env", str(tmp_path / "env.env"),
                 "--labeling", str(tmp_path / "labels.pi"), "--agent", "bot",
                 "-o", str(tmp_path / "bot")])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "replan"])
@pytest.mark.parametrize("missing", ["labeling", "initial"])
def test_plan_and_replan_name_an_unknown_agent(tmp_path, capsys, command, missing):
    mission = cycle_dfa(("go",), EventAlphabet(("go",)))
    save_dfa(mission, tmp_path / "m.aut")
    labels = "bot go R1\n" if missing == "initial" else "other go R1\n"
    (tmp_path / "labels.pi").write_text(labels, encoding="utf-8")
    initial = "bot R1\n" if missing == "labeling" else "other R1\n"
    env = tmp_path / "env.env"
    env.write_text("regions: R1 R2\ndoors: d\nadjacency:\nR1 R2\ndoormap:\nR1 R2 d\n"
                   "initial:\n" + initial, encoding="utf-8")
    argv = [command, str(tmp_path / "m.aut"), "--env", str(env),
            "--labeling", str(tmp_path / "labels.pi"), "--agent", "bot",
            "-o", str(tmp_path / "bot")]
    if command == "replan":
        argv += ["--real-env", str(env)]
    assert main(argv) == 2
    expected = ("labeling file lacks agent 'bot'" if missing == "labeling"
                else "environment lacks an initial region for 'bot'")
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not list(tmp_path.glob("bot_*"))


def test_verify_command_exit_codes(tmp_path):
    glob = EventAlphabet(("x", "y"))
    m1 = tmp_path / "m1.aut"
    m2 = tmp_path / "m2.aut"
    save_dfa(Dfa(("0",), EventAlphabet(("x",)), "0", {("0", "x"): "0"}, frozenset({"0"})), m1)
    save_dfa(Dfa(("0",), EventAlphabet(("y",)), "0", {("0", "y"): "0"}, frozenset({"0"})), m2)
    good = tmp_path / "good.aut"
    save_dfa(Dfa(("0",), glob, "0", {("0", "x"): "0", ("0", "y"): "0"}, frozenset({"0"})), good)
    assert main(["verify", str(good), str(m1), str(m2)]) == 0
    bad = tmp_path / "bad.aut"
    save_dfa(Dfa(("0",), glob, "0", {}, frozenset({"0"})), bad)
    assert main(["verify", str(bad), str(m1), str(m2)]) == 1


def test_verify_command_on_the_case_study_plans(tmp_path, capsys):
    # the assume-guarantee rule is inconclusive on the case study, so the
    # product check decides, and the command says so
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(fixture_path("casestudy.cfg")),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    plans = sorted(str(p) for p in out.glob("*_plan.aut"))
    assert len(plans) == 3
    assert main(["verify", str(out / "mission.aut"), *plans]) == 0
    assert capsys.readouterr().out == (
        "outcome: holds\n"
        "note: proof rule inconclusive; verdict from the direct product check\n"
    )
    assert not list(out.glob("*_assumption.aut"))


def test_parse_error_exits_2_and_names_the_line(tmp_path, capsys):
    bogus = tmp_path / "broken.aut"
    bogus.write_text("states: a\nwhat is this\n", encoding="utf-8")
    assert main(["complement", str(bogus)]) == 2
    err = capsys.readouterr().err
    assert "broken.aut:2" in err


@pytest.mark.parametrize("section, line, first", [
    ("marked: 1", 6, 5),
    ("states: 0 1", 6, 1),
    ("alphabet: a u", 6, 2),
    ("controllable: a", 6, 3),
    ("initial: 1", 6, 4),
])
def test_repeated_section_exits_2_and_names_both_lines(tmp_path, capsys, section, line, first):
    # a repeated section used to replace the earlier one silently
    text = "states: 0 1\nalphabet: a u\ncontrollable: a\ninitial: 0\nmarked: 0\n"
    repeated = tmp_path / "repeated.aut"
    repeated.write_text(text + section + "\ntransitions:\n0 a 1\n", encoding="utf-8")
    assert main(["complement", str(repeated)]) == 2
    key = section.split(":")[0]
    assert capsys.readouterr().err == (
        f"error: {repeated}:{line}: section {key!r} already given on line {first}\n")


def test_missing_file_exits_2(tmp_path):
    assert main(["complement", str(tmp_path / "nope.aut")]) == 2


def test_plan_command(tmp_path):
    mission = cycle_dfa(("h2", "F", "D1open", "G2inR1", "r"),
                        EventAlphabet(("D1open", "F", "G2inR1", "h2", "r"),
                                      frozenset({"F", "G2inR1", "r"})))
    mission_p = tmp_path / "m2.aut"
    save_dfa(mission, mission_p)
    labeling = tmp_path / "labels.pi"
    labeling.write_text(
        "a2 h2 R1\na2 F R2\na2 D1open R2\na2 G2inR1 R1\na2 r R1\n", encoding="utf-8"
    )
    env = tmp_path / "env.env"
    env.write_text(fixture_path("nominal.env").read_text().replace("agent2", "a2"),
                   encoding="utf-8")
    assert main(["plan", str(mission_p), "--env", str(env), "--labeling", str(labeling),
                 "--agent", "a2", "-o", str(tmp_path / "a2")]) == 0
    motion = load_dfa(tmp_path / "a2_motion.aut")
    assert accepts(motion, ("R1", "R2", "R1"))
    assert (tmp_path / "a2_integrated.aut").exists()
    assert (tmp_path / "a2_profile.aut").exists()


def test_pipeline_command_and_determinism(tmp_path):
    cfg = str(fixture_path("casestudy.cfg"))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["pipeline", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["pipeline", "--config", cfg, "--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_pipeline_under_optimized_python_writes_the_same_report(tmp_path):
    # invariants are explicit raises, so ``python -O`` runs the same checks
    src = Path(cosynth.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    reports = []
    for flags, name in (([], "plain"), (["-O"], "optimized")):
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, *flags, "-m", "cosynth.cli", "pipeline",
             "--config", str(fixture_path("casestudy.cfg")), "--out", str(out),
             "--real-env", str(fixture_path("real_no_d3.env")),
             "--schedule", str(fixture_path("d3_closed.sched"))],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        reports.append((out / "report.txt").read_bytes())
    assert reports[0] == reports[1]


def test_pipeline_with_real_env_and_schedule(tmp_path):
    cfg = str(fixture_path("casestudy.cfg"))
    out = tmp_path / "run"
    trace = tmp_path / "trace.txt"
    code = main([
        "pipeline", "--config", cfg, "--out", str(out),
        "--real-env", str(fixture_path("real_no_d3.env")),
        "--schedule", str(fixture_path("d3_closed.sched")),
        "--trace-out", str(trace),
    ])
    assert code == 0
    assert trace.exists()
    body = (out / "report.txt").read_text()
    assert "replanning" in body and "simulation" in body


def test_replan_command_matches_the_pipeline_replanning(tmp_path):
    # the case study keeps agent3's plan and reroutes the others; the
    # benchmark's ring instance (seed 1) splices a detour into both patrols
    ring = tmp_path / "ring"
    perfbench_generate().build("ring", 1, ring)
    instances = [
        (fixture_path("casestudy.cfg"), fixture_path("nominal.env"),
         fixture_path("real_no_d3.env"), fixture_path("labels.pi"),
         ("agent1", "agent2", "agent3")),
        (ring / "ring.cfg", ring / "nominal.env", ring / "real.env", ring / "labels.pi",
         ("patrol1", "patrol2")),
    ]
    for config, nominal, real, labels, agents in instances:
        out = tmp_path / config.stem / "out"
        assert main(["pipeline", "--config", str(config), "--out", str(out),
                     "--real-env", str(real)]) == 0
        report = (out / "report.txt").read_text(encoding="utf-8")
        for agent in agents:
            rp = tmp_path / config.stem / agent
            assert main(["replan", str(out / f"{agent}_plan.aut"), "--env", str(nominal),
                         "--real-env", str(real), "--labeling", str(labels),
                         "--agent", agent, "-o", str(rp)]) == 0
            for mine, pipeline_file in (("integrated", "replanned"),
                                        ("profile", "replanned_profile")):
                assert ((tmp_path / config.stem / f"{agent}_{mine}.aut").read_bytes()
                        == (out / f"{agent}_{pipeline_file}.aut").read_bytes())
        if config.stem == "ring":
            assert report.count("plan-rerouted") == 2, report


def test_pipeline_out_of_rounds_is_undecided(tmp_path, capsys):
    # three escort pairs need six repairs, two per pair: a budget of five
    # leaves the run undecided, with its own report line, status and exit code
    files = perfbench_generate().escorts(tmp_path / "escorts", 3, 1)
    for rounds, code, status in (("6", 0, "holds"), ("5", 1, "undecided")):
        out = tmp_path / rounds
        assert main(["pipeline", "--config", str(files.config), "--out", str(out),
                     "--real-env", str(files.real_env), "--max-rounds", rounds]) == code
        assert capsys.readouterr().out == f"status: {status}\n"
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert report.count("    repair ") == min(int(rounds), 6)
        assert ("  out-of-rounds: 5 repairs" in report) == (status == "undecided")
        assert "infeasible" not in report and report.endswith(f"status: {status}\n")


def test_simulate_command(tmp_path, capsys):
    cfg = str(fixture_path("casestudy.cfg"))
    code = main(["simulate", "--config", cfg,
                 "--schedule", str(fixture_path("d3_closed.sched"))])
    assert code == 0
    output = capsys.readouterr().out
    assert "replan" in output and " r mission" in output


def test_pipeline_with_explicit_plant_files(tmp_path):
    # two agents with plant models that are strictly larger than the mission
    a1 = EventAlphabet(("s", "x"), frozenset({"s", "x"}))
    a2 = EventAlphabet(("s", "y"), frozenset({"s", "y"}))
    plant1 = Dfa(("0", "1"), a1, "0", {("0", "x"): "1", ("1", "s"): "0", ("1", "x"): "1"},
                 frozenset(("0", "1")))
    plant2 = Dfa(("0", "1"), a2, "0", {("0", "y"): "1", ("1", "s"): "0"},
                 frozenset(("0", "1")))
    glob = EventAlphabet(("s", "x", "y"), frozenset({"s", "x", "y"}))
    mission = Dfa(("0", "1", "2"), glob, "0",
                  {("0", "x"): "1", ("1", "y"): "2", ("2", "s"): "0"},
                  frozenset(("0", "1", "2")))
    save_dfa(plant1, tmp_path / "p1.aut")
    save_dfa(plant2, tmp_path / "p2.aut")
    save_dfa(mission, tmp_path / "mission.aut")
    (tmp_path / "toy.cfg").write_text(
        "agents: one two\n"
        "mission: mission.aut\n"
        "alphabet one: s x\n"
        "alphabet two: s y\n"
        "plant one: p1.aut\n"
        "plant two: p2.aut\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(tmp_path / "toy.cfg"), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "final-check: holds" in report


def test_pipeline_separable_mission_needs_no_refinement(tmp_path):
    a1 = EventAlphabet(("x",), frozenset({"x"}))
    a2 = EventAlphabet(("y",), frozenset({"y"}))
    save_dfa(Dfa(("0",), a1, "0", {("0", "x"): "0"}, frozenset(("0",))), tmp_path / "m1.aut")
    save_dfa(Dfa(("0",), a2, "0", {("0", "y"): "0"}, frozenset(("0",))), tmp_path / "m2.aut")
    (tmp_path / "toy.cfg").write_text(
        "agents: one two\n"
        "mission: m1.aut m2.aut\n"
        "alphabet one: x\n"
        "alphabet two: y\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(tmp_path / "toy.cfg"), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "refinement-rounds: 0" in report


@pytest.mark.parametrize("edit, line, message", [
    (("uncontrollable agent2:", "uncontrollable agnet2:"), 9,
     "uncontrollable of undeclared agent 'agnet2'"),
    (("alphabet agent3:", "alphabet agent4:"), 10, "alphabet of undeclared agent 'agent4'"),
    (("labeling: labels.pi", "labeling: labels.pi\nplant agent9: Lspe1.aut"), 6,
     "plant of undeclared agent 'agent9'"),
    (("agents: agent1 agent2 agent3", "agents: agent1 agent2 agent3 agent2"), 2,
     "agent 'agent2' listed twice"),
    (("agents: agent1 agent2 agent3", "agents: agent1 agent2 agent3\nagents: agent1"), 3,
     "key 'agents' already given on line 2"),
    (("mission: Lspe1.aut Lspe2.aut", "mission: Lspe1.aut\nmission: Lspe2.aut"), 4,
     "key 'mission' already given on line 3"),
    (("environment: nominal.env", "environment: nominal.env\nenvironment: nominal.env"), 5,
     "key 'environment' already given on line 4"),
    (("labeling: labels.pi", "labeling: labels.pi\nlabeling: labels.pi"), 6,
     "key 'labeling' already given on line 5"),
    (("uncontrollable agent3:", "alphabet agent2: r\nuncontrollable agent3:"), 11,
     "key 'alphabet agent2' already given on line 8"),
    (("alphabet agent2:", "uncontrollable  agent1: h1\nalphabet agent2:"), 8,
     "key 'uncontrollable  agent1' already given on line 7"),
    (("labeling: labels.pi", "labeling: labels.pi\nplant agent1: Lspe1.aut\n"
                             "plant agent1: Lspe2.aut"), 7,
     "key 'plant agent1' already given on line 6"),
])
def test_pipeline_config_names_an_undeclared_or_repeated_agent(tmp_path, capsys, edit, line,
                                                                message):
    # a typo in an agent-keyed line used to drop it silently, a repeated
    # agent let its artifacts overwrite each other, and a repeated key kept
    # only its last line
    fixtures = fixture_path("casestudy.cfg").parent
    text = fixture_path("casestudy.cfg").read_text(encoding="utf-8")
    old, new = edit
    assert old in text
    config = tmp_path / "casestudy.cfg"
    config.write_text(text.replace(old, new), encoding="utf-8")
    for name in ("Lspe1.aut", "Lspe2.aut", "nominal.env", "labels.pi"):
        (tmp_path / name).write_text((fixtures / name).read_text(encoding="utf-8"),
                                     encoding="utf-8")
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {config}:{line}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, old, line", [
    ("environment", "environment: nominal.env", 4),
    ("labeling", "labeling: labels.pi", 5),
    ("plant agent2", "labeling: labels.pi", 6),
])
@pytest.mark.parametrize("values", ["", " nominal.env labels.pi"])
def test_pipeline_config_wants_exactly_one_file_per_key(tmp_path, capsys, key, old, line, values):
    # an empty value used to raise IndexError, and extra values were dropped
    text = fixture_path("casestudy.cfg").read_text(encoding="utf-8")
    assert old in text
    entry = f"{key}:{values}"
    new = f"{old}\n{entry}" if key.startswith("plant ") else entry
    config = tmp_path / "casestudy.cfg"
    config.write_text(text.replace(old, new), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
    count = len(values.split())
    assert capsys.readouterr().err == (
        f"error: {config}:{line}: {key} wants exactly one file, got {count}\n")
    assert not out.exists()


def test_pipeline_checks_the_spec_against_the_plants_generated_language(tmp_path):
    # the plant 0 -a-> 1 -b-> 0 marks only 0, so the prefix-closed spec
    # {ε, a} lies in its generated language but not in its marked one; supC
    # reads the generated language, and so does the pipeline's input check
    ab = EventAlphabet(("a", "b"), frozenset({"a", "b"}))
    save_dfa(Dfa(("0", "1"), ab, "0", {("0", "a"): "1", ("1", "b"): "0"}, frozenset({"0"})),
             tmp_path / "plant.aut")
    save_dfa(Dfa(("0", "1"), ab, "0", {("0", "a"): "1"}, frozenset({"0", "1"})),
             tmp_path / "mission.aut")
    config = tmp_path / "bot.cfg"
    config.write_text("agents: bot\nalphabet bot: a b\nplant bot: plant.aut\n"
                      "mission: mission.aut\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "report.txt").read_text(encoding="utf-8").endswith("status: holds\n")
    assert lang_set(load_dfa(out / "bot_plan.aut"), 3) == {(), ("a",)}


def test_shipped_fixture_files_are_canonical():
    for name in ("Lspe1.aut", "Lspe2.aut"):
        path = fixture_path(name)
        from cosynth.automata import dfa_from_text, dfa_to_text

        text = path.read_text(encoding="utf-8")
        assert dfa_to_text(dfa_from_text(text)) == text
