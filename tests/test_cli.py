"""Command-line interface: subcommands, formats, streams, exit codes."""

import errno
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cpd import cli
from cpd.cli import main
from cpd.control import operational_root
from cpd.models import model_text
from cpd.parser import parse, print_spec
from cpd.statespace import explore
from cpd.terms import Action, Channel

DOOMED = """uncontrollable u;
var x : 1..2 = 1;
process P = u![x := 2].1;
plant P;
requirement not (x = 2);
"""

OBSERVER = """controllable a, c;
var x : 1..2 = 1;
process P = c?[x := 2].1 + a?.c?.1;
plant P;
requirement not (x = 2);
"""

# two valuations where c is both allowed and disabled; which one the error
# names must not depend on the hash seed
TWO_CONFLICTS = """controllable a, b, c;
var x : 1..3 = 1;
var y : 1..2 = 1;
process P = c?[x := 3].1 + a?.c?.1 + b?[y := 2].(c?[x := 3].1 + a?.c?.1);
plant P;
requirement not (x = 3);
"""


@pytest.fixture
def agv(tmp_path):
    f = tmp_path / "agv.cpd"
    f.write_text(model_text("agv"))
    return str(f)


@pytest.fixture
def ppf(tmp_path):
    f = tmp_path / "cell.cpd"
    f.write_text(model_text("ppf_1_1"))
    return str(f)


@pytest.fixture
def tampered(tmp_path):
    f = tmp_path / "bad.cpd"
    f.write_text(model_text("ppf_1_1_tampered"))
    return str(f)


class TestParse:
    def test_prints_normalized_spec(self, agv, capsys):
        assert main(["parse", agv]) == 0
        out = capsys.readouterr().out
        assert out.startswith("controllable gotoA;")
        assert "supervisor Control;" in out

    def test_json_reports_diagnostics_and_text(self, agv, capsys):
        assert main(["parse", agv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"] == []
        assert doc["normalized"].startswith("controllable gotoA;")

    def test_syntax_error_positions_on_stderr(self, tmp_path, capsys):
        f = tmp_path / "broken.cpd"
        f.write_text("process P = q!.1;\nplant P;")
        assert main(["parse", str(f)]) == 1
        err = capsys.readouterr().err
        assert "broken.cpd:1:13: unknown channel 'q'" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["parse", str(tmp_path / "absent.cpd")]) == 1
        assert "absent.cpd" in capsys.readouterr().err


def is_a_directory(path):
    """The one-line diagnostic for opening a directory as a file."""
    return f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(path)!r}\n"


class TestExplore:
    def test_summary_line(self, agv, capsys):
        assert main(["explore", agv]) == 0
        assert capsys.readouterr().out == "states 4 transitions 4 marked 2\n"

    def test_unsupervised_walks_the_renamed_plant(self, agv, capsys):
        assert main(["explore", agv, "--unsupervised"]) == 0
        assert capsys.readouterr().out == "states 6 transitions 8 marked 2\n"

    def test_json_document(self, agv, capsys):
        assert main(["explore", agv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"states", "transitions", "initial"}
        assert len(doc["states"]) == 4

    def test_dot_document(self, agv, capsys):
        assert main(["explore", agv, "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph statespace {")

    def test_output_file(self, agv, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["explore", agv, "--format", "json", "-o", str(target)]) == 0
        json.loads(target.read_text())

    def test_directory_input(self, tmp_path, capsys):
        assert main(["explore", str(tmp_path)]) == 1
        assert capsys.readouterr().err == is_a_directory(tmp_path)

    def test_directory_output(self, agv, tmp_path, capsys):
        assert main(["explore", agv, "-o", str(tmp_path)]) == 1
        assert capsys.readouterr().err == is_a_directory(tmp_path)

    def test_budget_exceeded(self, agv, capsys):
        assert main(["explore", agv, "--budget", "2"]) == 2
        assert "state budget exceeded" in capsys.readouterr().err

    def test_budget_from_environment(self, agv, capsys, monkeypatch):
        monkeypatch.setenv("CPD_BUDGET", "2")
        assert main(["explore", agv]) == 2

    def test_flag_overrides_environment(self, agv, capsys, monkeypatch):
        monkeypatch.setenv("CPD_BUDGET", "2")
        assert main(["explore", agv, "--budget", "100"]) == 0

    def test_non_integer_budget_environment(self, agv, capsys, monkeypatch):
        monkeypatch.setenv("CPD_BUDGET", "abc")
        assert main(["explore", agv]) == 1
        assert capsys.readouterr().err == (
            "error: CPD_BUDGET must be an integer, got 'abc'\n")

    def test_zero_budget_rejected(self, agv, capsys):
        assert main(["explore", agv, "--budget", "0"]) == 1
        assert "budget must be at least 1" in capsys.readouterr().err

    def test_rho_identity_flag(self, agv, capsys):
        assert main(["explore", agv, "--rho-in-identity"]) == 0

    @pytest.mark.parametrize("flags, frontier, depth", [
        (["--unsupervised"], 7, 1),
        ([], 5, 2),
    ])
    def test_budget_error_says_how_far_it_got(self, ppf, flags, frontier,
                                              depth, capsys):
        assert main(["explore", ppf, "--budget", "10"] + flags) == 2
        err = capsys.readouterr().err
        assert err == ("error: state budget exceeded: more than 10 states "
                       f"reachable (reached 10 states, frontier {frontier}, "
                       f"depth {depth})\n")
        # the same figures from the full breadth-first space: the eleventh
        # state is found while expanding its parent, when the states
        # numbered after that parent are the frontier
        spec = parse(model_text("ppf_1_1"), "cell.cpd")
        root = operational_root(spec, unsupervised=bool(flags))
        full = explore(root, spec.declarations, budget=None)
        src = full.parents[10][0]
        assert 10 - (src + 1) == frontier
        assert len(full.trace_to(src)) == depth


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_with_hash_seed(seed, *args):
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from cpd.cli import main; sys.exit(main())",
         *args], env=env, capture_output=True, timeout=300)


class TestDeterminism:
    @pytest.mark.parametrize("command", ["explore", "synth"])
    def test_json_output_does_not_depend_on_hash_seed(self, command, ppf):
        outputs = set()
        for seed in ("0", "1"):
            run = run_with_hash_seed(seed, command, "--format", "json", ppf)
            assert run.returncode == 0
            outputs.add(run.stdout)
        assert len(outputs) == 1
        assert json.loads(outputs.pop())

    def test_controllability_counterexample_does_not_depend_on_hash_seed(self, tampered):
        runs = [run_with_hash_seed(seed, "check", tampered) for seed in ("0", "1")]
        assert [run.returncode for run in runs] == [1, 1]
        assert runs[0].stdout == runs[1].stdout
        assert b"controllability: FAIL\nat pair (left 0, right 0)" in runs[0].stdout

    def test_observer_error_does_not_depend_on_hash_seed(self, tmp_path):
        f = tmp_path / "conflicts.cpd"
        f.write_text(TWO_CONFLICTS)
        runs = [run_with_hash_seed(seed, "synth", str(f)) for seed in ("0", "2")]
        assert [run.returncode for run in runs] == [1, 1]
        assert runs[0].stderr == runs[1].stderr
        assert b"states 1 and 0" in runs[0].stderr


class TestDeepTerms:
    def test_long_prefix_chain_parses_and_explores(self, tmp_path, capsys):
        f = tmp_path / "deep.cpd"
        f.write_text("uncontrollable u;\nprocess P = " + "u!." * 5000
                     + "1;\nplant P;\n")
        assert main(["parse", str(f)]) == 0
        text = capsys.readouterr().out
        # compare texts: record equality recurses on deep terms
        assert print_spec(parse(text, "deep.cpd")) == text
        assert main(["explore", str(f)]) == 0
        assert capsys.readouterr().out == "states 5001 transitions 5000 marked 1\n"

    @pytest.mark.parametrize("body", [" + ".join(["u!.1"] * 2000), "1." * 2000 + "u!.1"],
                             ids=["wide-sum", "long-seq-chain"])
    def test_wide_sum_and_long_sequence_explore(self, body, tmp_path, capsys):
        f = tmp_path / "wide.cpd"
        f.write_text("uncontrollable u;\nprocess P = " + body + ";\nplant P;\n")
        assert main(["explore", str(f)]) == 0
        assert capsys.readouterr().out == "states 2 transitions 1 marked 1\n"

    def test_wide_parallel_composition_ends_in_the_budget(self, tmp_path, capsys):
        # 500 one-step components on distinct channels reach 2^500 states;
        # keying them must not hit the recursion limit before the budget
        f = tmp_path / "wide.cpd"
        names = [f"u{i}" for i in range(500)]
        f.write_text("uncontrollable " + ", ".join(names) + ";\nprocess P = "
                     + " || ".join(f"{n}!.1" for n in names) + ";\nplant P;\n")
        assert main(["explore", str(f), "--budget", "10000"]) == 2
        assert capsys.readouterr().err == (
            "error: state budget exceeded: more than 10000 states reachable "
            "(reached 10000 states, frontier 9979, depth 1)\n")

    def test_wide_parallel_composition_below_a_prefix_explores(self, tmp_path, capsys):
        # the || is one component, stepped and keyed along its 2,000-part spine
        f = tmp_path / "wide.cpd"
        f.write_text("uncontrollable a, u0;\nprocess P = a!.(u0!.1" + " || 1" * 1999
                     + ");\nplant P;\n")
        assert main(["explore", str(f)]) == 0
        assert capsys.readouterr().out == "states 3 transitions 2 marked 1\n"

    def test_wide_parallel_composition_below_a_prefix_ends_in_the_budget(self, tmp_path,
                                                                          capsys):
        f = tmp_path / "wide.cpd"
        names = [f"u{i}" for i in range(600)]
        f.write_text("uncontrollable a, " + ", ".join(names) + ";\nprocess P = a!.("
                     + " || ".join(f"{n}!.1" for n in names) + ");\nplant P;\n")
        assert main(["explore", str(f), "--budget", "100"]) == 2
        assert capsys.readouterr().err == (
            "error: state budget exceeded: more than 100 states reachable "
            "(reached 100 states, frontier 98, depth 1)\n")

    @pytest.mark.parametrize("command", ["parse", "explore"])
    def test_deep_parentheses_are_resource_exhaustion(self, command, tmp_path,
                                                      capsys):
        f = tmp_path / "deep.cpd"
        f.write_text("uncontrollable u;\nprocess P = " + "(" * 2000 + "u!.1"
                     + ")" * 2000 + ";\nplant P;\n")
        assert main([command, str(f)]) == 2
        assert capsys.readouterr().err == (
            "error: recursion limit reached: the specification nests too "
            "deeply\n")

    def test_nested_parentheses_parse_each_formula_once(self, tmp_path):
        # each level is tried as a formula and as a data comparison before it
        # is read as a term; parsing a formula once per start token keeps 150
        # levels fast, and 160 levels still fit the default recursion limit
        # (fresh processes, so the test runner's frames do not count)
        code = ("import time; from cpd.parser import parse\n"
                "text = 'uncontrollable u;\\nprocess P = ' + '(' * 150 + 'u!.1' + ')' * 150"
                " + ';\\nplant P;\\n'\n"
                "start = time.perf_counter(); parse(text); print(time.perf_counter() - start)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        assert float(run.stdout) < 0.3
        f = tmp_path / "deep.cpd"
        f.write_text("uncontrollable u;\nprocess P = " + "(" * 160 + "u!.1"
                     + ")" * 160 + ";\nplant P;\n")
        run = run_with_hash_seed("0", "parse", str(f))
        assert run.returncode == 0, run.stderr


class TestCheck:
    def test_all_pass(self, agv, capsys):
        assert main(["check", agv]) == 0
        out = capsys.readouterr().out
        assert out == ("requirements: pass\ncontrollability: pass\n"
                       "nonblocking: pass\n")

    def test_single_kind(self, agv, capsys):
        assert main(["check", agv, "nonblocking"]) == 0
        assert capsys.readouterr().out == "nonblocking: pass\n"

    def test_no_supervisor_skips_controllability(self, ppf, capsys):
        assert main(["check", ppf.replace("cell", "nosup"), "requirements"]) == 1

    def test_unsupervised_requirements_fail(self, tmp_path, capsys):
        f = tmp_path / "nosup.cpd"
        # keep the plant and requirements, drop the supervisor clauses
        text = model_text("ppf_1_1")
        head = text.split("process S =")[0]
        reqs = [l for l in text.splitlines() if l.startswith("requirement")]
        f.write_text(head + "\n".join(reqs) + "\n")
        assert main(["check", str(f)]) == 1
        got = capsys.readouterr()
        assert "note: no supervisor declared, skipping controllability" in got.err
        assert "requirements: FAIL" in got.out
        assert "more violations" in got.out

    def test_tampered_supervision_fails_controllability(self, tampered, capsys):
        assert main(["check", tampered, "controllability"]) == 1
        out = capsys.readouterr().out
        assert "controllability: FAIL" in out
        assert "no matching move back" in out

    def test_pbis_needs_against(self, agv, capsys):
        assert main(["check", agv, "pbis"]) == 1
        assert "--against" in capsys.readouterr().err

    def test_pbis_self_comparison(self, agv, capsys):
        assert main(["check", agv, "pbis", "--against", agv]) == 0
        assert capsys.readouterr().out == "pbis: pass\n"

    def test_pbis_direction_matters(self, agv, ppf, capsys):
        assert main(["check", agv, "pbis", "--against", ppf,
                     "--bisim-actions", "none"]) == 1

    def test_unencapsulated_nonblocking(self, agv, capsys):
        assert main(["check", agv, "nonblocking", "--no-encap-nonblocking"]) == 0


class TestSynth:
    def test_text_spec_on_stdout_report_on_stderr(self, agv, capsys):
        assert main(["synth", agv]) == 0
        got = capsys.readouterr()
        assert "supervisor Supervisor;" in got.out
        assert "gotoA: L = B" in got.err
        assert "verification: requirements=pass, controllability=pass, " \
               "nonblocking=pass" in got.err

    def test_output_file_parses_and_passes(self, agv, tmp_path, capsys):
        target = tmp_path / "supervised.cpd"
        assert main(["synth", agv, "-o", str(target)]) == 0
        merged = parse(target.read_text(), "supervised.cpd")
        assert merged.supervisor_name == "Supervisor"
        assert main(["check", str(target)]) == 0

    def test_json_payload(self, agv, capsys):
        assert main(["synth", agv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"report", "verification", "supervised_states", "spec"}
        assert doc["report"]["guards"] == {"gotoA": "L = B", "gotoB": "L = A"}
        assert doc["verification"] == {"requirements": True,
                                       "controllability": True,
                                       "nonblocking": True}
        parse(doc["spec"], "payload.cpd")

    def test_unsalvageable_plant_exits_three(self, tmp_path, capsys):
        f = tmp_path / "doomed.cpd"
        f.write_text(DOOMED)
        assert main(["synth", str(f)]) == 3
        assert "no supervisor exists" in capsys.readouterr().err

    def test_guard_conflict_exits_one(self, tmp_path, capsys):
        f = tmp_path / "observer.cpd"
        f.write_text(OBSERVER)
        assert main(["synth", str(f)]) == 1
        assert "not a function of the variables" in capsys.readouterr().err

    def test_collector_thresholds_left_unchanged(self, agv, monkeypatch, capsys):
        # an explored space holds no per-state object the cyclic collector
        # tracks for long, so main leaves the collector's settings alone
        before = gc.get_threshold()
        seen = []

        def failing(args):
            seen.append(gc.get_threshold())
            raise ValueError("stop")

        assert main(["synth", agv]) == 0
        assert gc.get_threshold() == before
        monkeypatch.setattr(cli, "cmd_synth", failing)
        assert main(["synth", agv]) == 1
        assert seen == [before]
        assert gc.get_threshold() == before

    def test_actions_and_channels_hashed_a_few_times_each(self, monkeypatch, capsys,
                                                          tmp_path):
        # every stage reads action indices and channel masks, and the
        # explorer finds an action object it has met by its id, so a run
        # hashes an Action or a Channel only where it meets one for the first
        # time: 229 and 355 times on PPF(1,[2]) and 341 and 527 on
        # PPF(2,[2,1]), against 471/597 and 2,764/2,950 when every new step
        # table entry hashed its actions
        assert main(["ppf", "--counters", "2", "--ops", "2,1",
                     "-o", str(tmp_path / "ppf_2_21.cpd")]) == 0
        counts = {Action: 0, Channel: 0}
        for cls in counts:
            def counting(self, cls=cls, original=cls.__hash__):
                counts[cls] += 1
                return original(self)
            monkeypatch.setattr(cls, "__hash__", counting)
        inputs = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
        for path in (inputs / "ppf_1_2.cpd", tmp_path / "ppf_2_21.cpd"):
            counts[Action] = counts[Channel] = 0
            assert main(["synth", str(path)]) == 0
            assert "verification: requirements=pass" in capsys.readouterr().err
            assert counts[Action] <= 400
            assert counts[Channel] <= 600


class TestPpf:
    def test_generates_parseable_model(self, tmp_path, capsys):
        target = tmp_path / "cell.cpd"
        assert main(["ppf", "--counters", "2", "--ops", "2,1",
                     "-o", str(target)]) == 0
        sp = parse(target.read_text(), "cell.cpd")
        assert sp.plant_name
        assert len(sp.declarations.variables) == 9

    def test_stdout_by_default(self, capsys):
        assert main(["ppf", "--counters", "1", "--ops", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("controllable")
        parse(out, "gen.cpd")

    def test_bad_shape(self, capsys):
        assert main(["ppf", "--counters", "2", "--ops", "1"]) == 1
        assert "one op count per counter" in capsys.readouterr().err

    def test_non_numeric_ops(self, capsys):
        assert main(["ppf", "--counters", "1", "--ops", "x"]) == 1


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("command", [
        ["parse", "--format", "dot"],
        ["check", "--format", "dot"],
        ["synth", "--format", "dot"],
        ["explore", "--format", "svg"],
        ["ppf", "--counters", "1", "--ops", "1", "--format", "json"],
        ["ppf", "--counters", "1", "--ops", "1", "--format", "text"],
    ], ids=" ".join)
    def test_a_format_the_command_does_not_write_is_refused(self, agv, capsys, command):
        argv = command if command[0] == "ppf" else command[:1] + [agv] + command[1:]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cpd ")
        assert "--format" in captured.err
