"""CLI dispatch, exit codes, report determinism, expression round trips."""

import hashlib
import json
import multiprocessing
import os
import pickle

import pytest

from qchar2.cli import main
from qchar2.errors import ParseError, QChar2Error, RefutationCandidate, SearchExhausted
from qchar2.parsing import parse_field, parse_form
from qchar2.suites import SUITES, suite_takes_budget
from qchar2.witt import IsotropyVerdict, verify_certificate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerbs:
    def test_witt_isotropy_anisotropic(self, capsys):
        code, out = run(capsys, "witt", "isotropy", "--field", "F2((t))", "<<t,1]]")
        assert code == 0
        assert "anisotropic" in out

    def test_isotropy_undecidable_exit(self, capsys):
        # wild mixture at height 2: two pairs with an irreducible pole in
        # the a-slot at the outer variable
        code, out = run(capsys, "isotropy", "--field", "F2((t1))((t2))",
                        "[1,1/t2]+(1+t2)*[1,1/t2]", "--budget", "64")
        assert code == 1
        assert "undecided" in out

    def test_height_one_wild_mixture_is_decided(self, capsys):
        # over F2((t)) the same shape has trivial Arf and the nontrivial
        # class [1/t, 1+t): anisotropic by its invariants, at any budget
        code, out = run(capsys, "isotropy", "--field", "F2((t))",
                        "[1,1/t]+(1+t)*[1,1/t]", "--budget", "64", "--format", "json", "--no-meta")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "anisotropic"
        assert report["certificate"] == {
            "rule": "local-invariants", "dim": 4, "arf": "0", "class_trivial": False,
        }

    def test_mixed_residue_zero_lifts(self, capsys):
        # the unit residue [1,z^5]+<1>q has an exact zero, which gives a
        # Hensel pair on the form itself
        text = "[1,z^5]+<1+t>q"
        code, out = run(capsys, "isotropy", "--field", "F2^8((t))", text,
                        "--format", "json", "--no-meta")
        assert code == 0
        data = json.loads(out)
        f = parse_form(parse_field("F2^8((t))"), text)
        assert verify_certificate(f, IsotropyVerdict(data["verdict"], None, data["certificate"]))

    def test_symlen_bound(self, capsys):
        code, out = run(capsys, "symlen", "bound", "--u", "8,8", "--n", "3")
        assert code == 0
        assert "3" in out

    def test_symlen_split(self, capsys):
        code, out = run(capsys, "symlen", "split", "--field", "F2((t))",
                        "t*[1,1]+[1,1]", "--n", "2", "--format", "json", "--no-meta")
        assert code == 0
        data = json.loads(out)
        assert data["slots"] == ["t"]

    def test_invariants(self, capsys):
        code, out = run(capsys, "invariants", "--field", "F2((t))", "t*[1,1]",
                        "--n", "2", "--format", "json", "--no-meta")
        assert code == 0
        data = json.loads(out)
        assert data["arf"]["trivial"] is False
        assert data["membership"]["member"] is False

    def test_symbol_trivial(self, capsys):
        code, out = run(capsys, "symbol", "trivial", "--field", "F2((t))",
                        "1 d(t)/t", "--format", "json", "--no-meta")
        assert code == 0
        assert json.loads(out)["trivial"] is False

    def test_wild_symbol_trivial(self, capsys):
        # the residue of (1/t^3) dt/(1+t) is 1, whose trace is 1 (Schmid)
        code, out = run(capsys, "symbol", "trivial", "--field", "F2((t))",
                        "(1/t^3) d(1+t)/(1+t)")
        assert code == 0
        assert "trivial: False" in out.splitlines()

    def test_merged_clifford_symbols_cancel(self, capsys):
        # the slot merges leave [1, t^2+t) twice, which cancels
        code, out = run(capsys, "invariants", "--field", "F2((t))",
                        "t*[1,1]+(1+t)*[1,1]+(t^2+t)*[1,1]+[1,1]")
        assert code == 0
        lines = out.splitlines()
        clifford = lines.index("clifford:")
        assert lines[clifford + 1:] == ["  symbols: 0", "  trivial: True"]

    def test_wild_clifford_class(self, capsys):
        # the class (1/t^5) d(1/(t+1))/(1/(t+1)) has residue 1 as well
        code, out = run(capsys, "invariants", "--field", "F2((t))", "(1/(t+1))*[1,1/t^5]")
        assert code == 0
        lines = out.splitlines()
        clifford = lines.index("clifford:")
        assert "  trivial: False" in lines[clifford:]

    def test_symbol_rewrite_roundtrip(self, capsys):
        code, out = run(capsys, "symbol", "rewrite",
                        "--field", "F2((t1))((t2))",
                        "(1+t1) d(t1*t2)/(t1*t2)",
                        "--format", "json", "--no-meta")
        assert code == 0
        data = json.loads(out)
        assert data["symbols"] <= 2

    def test_linkage_max(self, capsys):
        code, out = run(capsys, "linkage", "max", "--field", "F2((t1))((t2))",
                        "--p", "<<t1,1]]", "--q", "<<t2,1]]",
                        "--format", "json", "--no-meta", "--budget", "0")
        assert code == 0
        data = json.loads(out)
        assert data["max_separable_linkage"] >= 1

    def test_u_invariant(self, capsys):
        code, out = run(capsys, "u-invariant", "--field", "F2((t))", "--n", "2",
                        "--format", "json", "--no-meta")
        assert code == 0
        assert json.loads(out)["value"] == 4

    @pytest.mark.parametrize("field, pfister, hyperbolic", [
        # wild last slots: the symbol decides where the form decider
        # answered "wild mixture"; over F4((t)) Schmid's trace is Tr(z) = 1
        ("F2((t1))((t2))((t3))", "<<t1,1/t3]]", False),
        ("F2^2((t))", "<<t+1,z/t^3]]", False),
        ("F2((t))", "<<t,1/t^3]]", True),
        ("F2((t1))((t2))", "<<t1,t2/t1^3]]", True),
    ])
    def test_pfister_hyperbolic(self, capsys, field, pfister, hyperbolic):
        code, out = run(capsys, "pfister", "hyperbolic", "--field", field, pfister,
                        "--format", "json", "--no-meta")
        assert code == 0
        assert json.loads(out)["hyperbolic"] is hyperbolic

    def test_pfister_expand(self, capsys):
        code, out = run(capsys, "pfister", "expand", "--field", "F2((t))",
                        "<<t,1]]", "--format", "json", "--no-meta")
        assert code == 0
        assert json.loads(out)["expansion"] == "[1,1]+t*[1,1]"

    def test_verify_small(self, capsys):
        code, out = run(capsys, "verify", "pfister-dichotomy",
                        "--field", "F2((t))", "--samples", "10", "--seed", "7",
                        "--format", "json", "--no-meta")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_verify_theorem_suite(self, capsys):
        code, out = run(capsys, "verify", "theoremu", "--field", "F2((t))",
                        "--samples", "100", "--seed", "7",
                        "--format", "json", "--no-meta")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["suites"][0]["stats"]["anisotropic_samples"] == 100

    def test_symlen_decompose(self, capsys):
        code, out = run(capsys, "symlen", "decompose",
                        "--field", "F2((t1))((t2))",
                        "<<t1,1]]+t2*(<<1+t1,t1]])", "--n", "2",
                        "--format", "json", "--no-meta")
        assert code == 0
        assert json.loads(out)["symbols"] <= 3


class TestExitCodes:
    def test_parse_error(self, capsys):
        code = main(["isotropy", "--field", "F2((t))", "<<t,1]"])
        assert code == 2

    def test_unknown_field_symbol(self, capsys):
        code = main(["isotropy", "--field", "F2((t))", "[1,x]"])
        assert code == 2

    def test_usage_error(self, capsys):
        code = main(["witt"])
        assert code == 2

    @pytest.mark.parametrize("form", ["[1,1/0]", "[1,0^-1]"])
    def test_zero_division_in_expression(self, capsys, form):
        code = main(["isotropy", "--field", "F2((t))", form])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_integer_u_value(self, capsys):
        code = main(["symlen", "bound", "--u", "8,x", "--n", "3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_budget_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("QCHAR2_BUDGET", "lots")
        code = main(["isotropy", "--field", "F2((t))", "[1,1]"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        # an explicit --budget does not read the variable
        assert main(["isotropy", "--field", "F2((t))", "[1,1]", "--budget", "64"]) == 0

    def test_negative_budget_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("QCHAR2_BUDGET", "-5")
        assert main(["isotropy", "--field", "F2((t))", "[1,1]"]) == 2
        assert "error:" in capsys.readouterr().err
        # zero is a budget
        assert main(["isotropy", "--field", "F2((t))", "[1,1]", "--budget", "0"]) == 0


class TestVerifyBudget:
    def test_budget_equal_to_default_is_honoured(self, capsys):
        code, out = run(capsys, "verify", "oracle", "--samples", "3", "--budget", "20000",
                        "--format", "json", "--no-meta")
        assert code == 0
        assert json.loads(out)["suites"][0]["stats"]["budget"] == 20000

    def test_no_budget_keeps_the_suite_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("QCHAR2_BUDGET", "64")
        code, out = run(capsys, "verify", "oracle", "--samples", "3",
                        "--format", "json", "--no-meta")
        assert code == 0
        assert json.loads(out)["suites"][0]["stats"]["budget"] == 100000


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        argv = ["verify", "invariance", "--field", "F2((t))", "--samples", "5",
                "--seed", "11", "--format", "json", "--no-meta"]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_all_bytes(self, capsys):
        # the behaviour gate for refactors: the whole suite report is
        # byte-identical to the recorded one
        code, out = run(capsys, "verify", "all", "--format", "json", "--no-meta",
                        "--seed", "0")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "12e7a400990c705066cf6fef034d46f6bcc005959cc92c08e669197d8f39806e"

    def test_report_reparses(self, capsys):
        code, out = run(capsys, "witt", "decompose", "--field", "F2((t))",
                        "<<t,1]]+[1,0]", "--format", "json", "--no-meta")
        assert code == 0
        data = json.loads(out)
        from qchar2.parsing import parse_field, parse_form

        tw = parse_field(data["field"])
        kernel = parse_form(tw, data["kernel"])
        assert kernel.dim == 4
        assert data["witt_index"] == 1


def leaf_options(parser, path=()):
    """(command, operation) -> option names, for every leaf of the parser;
    --help, --format and --no-meta are left out."""
    import argparse

    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                out.update(leaf_options(child, path + (name,)))
            return out
    out[" ".join(path)] = {
        max(a.option_strings, key=len) for a in parser._actions
        if a.option_strings and a.dest not in ("help", "format", "no_meta")
    }
    return out


class TestOptionContract:
    # every option a leaf declares is read by its handler, and no other
    TABLE = {
        "isotropy": {"--field", "--budget"},
        "witt isotropy": {"--field", "--budget"},
        **{cmd: {"--field"} for cmd in (
            "witt decompose", "witt index", "witt hyperbolic", "witt equivalent",
            "pfister expand", "pfister hyperbolic", "pfister invariant",
            "symbol simplify", "symbol trivial", "symbol rewrite")},
        "symbol length": {"--field", "--budget"},
        "invariants": {"--field", "--n"},
        "symlen split": {"--field", "--n"},
        "symlen bound": {"--u", "--n", "--rank"},
        "symlen decompose": {"--field", "--n", "--budget"},
        "linkage max": {"--field", "--p", "--q", "--budget"},
        "linkage check": {"--field", "--p", "--q", "--k", "--budget"},
        "u-invariant": {"--field", "--n"},
        "verify": {"--field", "--seed", "--samples", "--budget"},
    }

    def test_leaf_options_match_table(self):
        from qchar2.cli import build_parser

        got = leaf_options(build_parser())
        assert got == self.TABLE
        assert sum(len(v) for v in got.values()) == 41

    @pytest.mark.parametrize("argv", [
        ["pfister", "expand", "--field", "F2((t))", "<<t,1]]", "--budget", "5"],
        ["linkage", "max", "--field", "F2((t))", "--p", "<<t,1]]", "--q", "<<t,1]]",
         "--inseparable"],
        ["oracle-check", "--field", "F2((t))"],
    ])
    def test_undeclared_option_or_command_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2

    def test_budget_on_a_suite_without_search(self, capsys):
        assert main(["verify", "invariance", "--budget", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_budget_on_a_suite_with_search(self, capsys):
        assert main(["verify", "pfister-dichotomy", "--samples", "3", "--budget", "64"]) == 0

    def test_budget_on_the_witt_lemma_suite(self, capsys):
        # wittlemma decides by the symbol of its ambient Pfister form and searches nothing
        assert main(["verify", "wittlemma", "--budget", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "takes no budget" in err

    def test_the_suites_that_take_a_budget(self):
        searching = {name for name in SUITES if suite_takes_budget(name)}
        assert searching == {"pfister-dichotomy", "oracle", "u-witness", "length-pipeline",
                             "theoremu", "insep", "coru", "lift"}
        # insep and coru name one suite
        assert len({SUITES[name] for name in searching}) == 7


class TestHypothesisViolations:
    @pytest.mark.parametrize("argv", [
        ["linkage", "max", "--field", "F2((t))", "--p", "<<t,0]]", "--q", "<<t,1]]"],
        ["symlen", "decompose", "--field", "F2((t))", "<<t,1]]", "--n", "1"],
        ["invariants", "--field", "F2((t))", "[1,1]", "--n", "0"],
        ["symlen", "bound", "--u", "8,8", "--n", "3", "--rank", "-1"],
        # a sample count below 1 is a usage error
        ["verify", "oracle", "--samples", "-1"],
        # u^n starts at degree 1
        ["u-invariant", "--field", "F2((t))", "--n", "0"],
        # a negative budget is a usage error
        ["witt", "isotropy", "--field", "F2((t))", "--budget", "-5", "[1,1/t]+(1+t)*[1,1/t]"],
        ["verify", "oracle", "--samples", "3", "--budget", "-1"],
        # a common factor of two 2-folds has fold 0 or 1
        ["linkage", "check", "--field", "F2((t))", "--p", "<<t,1]]", "--q", "<<t+t^2,1]]",
         "--k", "-1"],
        ["linkage", "check", "--field", "F2((t))", "--p", "<<t,1]]", "--q", "<<t+t^2,1]]",
         "--k", "2"],
        # splitting slots start at degree 1
        ["symlen", "split", "--field", "F2((t))", "[1,1]+[1,1]", "--n", "0"],
        ["symlen", "split", "--field", "F2((t))", "[1,1]+[1,1]", "--n", "-1"],
    ])
    def test_exit_two_without_traceback(self, capsys, argv):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_suite_on_a_field_without_its_pfister_forms(self, capsys):
        # I_q^2 F_4 = 0: the insep suite has no anisotropic 2-fold to draw
        assert main(["verify", "insep", "--field", "F4", "--samples", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: no anisotropic 2-fold Pfister form exists over F2^2\n"

    def test_linkage_check_with_no_common_slot(self, capsys):
        code, out = run(capsys, "linkage", "check", "--field", "F2((t))", "--p", "<<t,1]]",
                        "--q", "<<t+t^2,1]]", "--k", "0", "--format", "json", "--no-meta")
        assert code == 0
        assert json.loads(out)["linked"] is True


class TestRefutationCandidates:
    def test_non_power_of_two_witt_index_exits_three(self, capsys, monkeypatch):
        import qchar2.linkage

        monkeypatch.setattr(qchar2.linkage, "witt_index", lambda f: 3)
        code = main(["linkage", "max", "--field", "F2((t1))((t2))",
                     "--p", "<<t1,1]]", "--q", "<<t2,1]]"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("refutation candidate:") and "Traceback" not in err
        assert "Witt index 3" in err

    def test_false_exact_witness_exits_three(self, capsys, monkeypatch):
        import qchar2.witt

        # e_1 takes the value 1 on the form, so it is not a zero of it
        monkeypatch.setattr(qchar2.witt, "_diagonal_witness",
                            lambda f: (f.tower.one(),) + (f.tower.zero(),) * (f.dim - 1))
        code = main(["witt", "isotropy", "--field", "F2((t))", "[1,1/t]+t*[1,1/t]"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("refutation candidate:") and "Traceback" not in err
        assert "[1,1/t]" in err

    def test_survives_optimized_mode(self):
        # a bare assert or AssertionError would vanish or change under -O
        import os
        import subprocess
        import sys
        from pathlib import Path

        import qchar2

        env = {**os.environ, "PYTHONPATH": str(Path(qchar2.__file__).parents[1])}
        script = (
            "import qchar2.linkage as L, qchar2.cli as C; L.witt_index = lambda f: 3;"
            "raise SystemExit(C.main(['linkage', 'max', '--field', 'F2((t1))((t2))',"
            " '--p', '<<t1,1]]', '--q', '<<t2,1]]']))"
        )
        done = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 3, done.stderr
        assert "Traceback" not in done.stderr


def test_runs_as_a_module():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qchar2

    env = {**os.environ, "PYTHONPATH": str(Path(qchar2.__file__).parents[1])}
    argv = ["symlen", "bound", "--u", "4", "--n", "2"]
    done = subprocess.run([sys.executable, "-m", "qchar2", *argv],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "bound: 1" in done.stdout


def test_undersampled_theoremd_is_undecided(capsys):
    # three samples find no anisotropic dimension 4 over F2((t)): missing
    # evidence (exit 1), not a counter-instance (exit 3)
    code, out = run(capsys, "verify", "theoremd", "--samples", "3",
                    "--format", "json", "--no-meta")
    assert code == 1
    (suite,) = json.loads(out)["suites"]
    assert suite["stats"]["d"] < suite["stats"]["u"]
    assert [f["kind"] for f in suite["failures"]] == ["undecided"]
    assert main(["verify", "all", "--field", "F4((t))", "--samples", "3"]) == 1


def run_on_cpus(capsys, monkeypatch, cpus, *argv):
    """`run` with `cpus` usable CPUs: `verify` runs its suites in forked
    workers when there are two or more, in process with one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWorkerPool:
    @pytest.mark.parametrize("argv", [
        *[("--seed", seed, "--format", fmt, "--no-meta")
          for seed in ("0", "1", "7") for fmt in ("json", "text")],
        ("--field", "F2((t1))((t2))", "--samples", "5", "--format", "json", "--no-meta"),
    ])
    def test_pool_and_in_process_bytes_agree(self, capsys, monkeypatch, argv):
        pooled = run_on_cpus(capsys, monkeypatch, 2, "verify", "all", *argv)
        alone = run_on_cpus(capsys, monkeypatch, 1, "verify", "all", *argv)
        assert pooled == alone
        assert pooled[0] in (0, 1) and pooled[1]

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (3, 3)])
    def test_meta_records_workers_and_suite_seconds(self, capsys, monkeypatch, cpus, workers):
        code, out, _ = run_on_cpus(capsys, monkeypatch, cpus, "verify", "all", "--samples", "1",
                                   "--format", "json")
        meta = json.loads(out)["meta"]
        assert meta["workers"] == workers
        # keyed by the names `verify all` runs the suites under
        assert len(meta["suite_seconds"]) == 13 and "coru" in meta["suite_seconds"]
        assert all(s > 0 for s in meta["suite_seconds"].values())
        assert multiprocessing.active_children() == []

    def test_workers_do_not_repeat_unwritten_output(self):
        # with stdout a pipe, "marker" sits in the buffer when the workers
        # fork; a worker that inherited it would write it again at exit
        import subprocess
        import sys
        from pathlib import Path

        import qchar2

        script = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1};"
                  "from qchar2.cli import main; sys.stdout.write('marker\\n');"
                  "raise SystemExit(main(['verify', 'all', '--samples', '1', '--format', 'json']))")
        env = {**os.environ, "PYTHONPATH": str(Path(qchar2.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert done.stdout.count("marker") == 1, done.stderr
        assert json.loads(done.stdout.split("\n", 1)[1])["meta"]["workers"] == 2

    def test_one_suite_runs_in_process(self, capsys, monkeypatch):
        code, out, _ = run_on_cpus(capsys, monkeypatch, 2, "verify", "oracle", "--samples", "2",
                                   "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["workers"] == 1

    def test_a_second_thread_keeps_the_suites_in_process(self, capsys, monkeypatch):
        # a fork copies only the calling thread, and any lock another
        # thread holds stays locked in the worker
        import threading

        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            code, out, _ = run_on_cpus(capsys, monkeypatch, 2, "verify", "all", "--samples", "1",
                                       "--format", "json")
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert json.loads(out)["meta"]["workers"] == 1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_worker_error_keeps_its_exit_code(self, capsys, monkeypatch, cpus):
        code, out, err = run_on_cpus(capsys, monkeypatch, cpus, "verify", "all", "--field", "F4")
        assert code == 2 and out == ""
        assert err == "error: no anisotropic 2-fold Pfister form exists over F2^2\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_worker_refutation_exits_three(self, capsys, monkeypatch, cpus):
        import qchar2.suites

        def refuted(**kwargs):
            raise RefutationCandidate("oracle found a zero of an anisotropic form")

        # forked workers see the patched registry
        monkeypatch.setitem(qchar2.suites.SUITES, "oracle", refuted)
        code, out, err = run_on_cpus(capsys, monkeypatch, cpus, "verify", "all", "--samples", "1")
        assert code == 3 and out == ""
        assert err == "refutation candidate: oracle found a zero of an anisotropic form\n"
        assert multiprocessing.active_children() == []

    # the start order is a schedule only: whatever it is, the bytes, the
    # meta keys and the raised error follow name order
    @pytest.mark.parametrize("seed", ["0", "1", "7"])
    def test_reversed_start_order_keeps_the_bytes(self, capsys, monkeypatch, seed):
        import qchar2.cli

        argv = ("verify", "all", "--seed", seed, "--format", "json", "--no-meta")
        alone = run_on_cpus(capsys, monkeypatch, 1, *argv)
        monkeypatch.setattr(qchar2.cli, "START_FIRST", tuple(sorted(SUITES, reverse=True)))
        assert run_on_cpus(capsys, monkeypatch, 2, *argv) == alone

    def test_suites_start_heaviest_first(self, capsys, monkeypatch):
        import concurrent.futures

        import qchar2.cli

        started = []
        pool_class = concurrent.futures.ProcessPoolExecutor

        class Recording(pool_class):
            def submit(self, fn, *args, **kwargs):
                started.append(args[0])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        _, out, _ = run_on_cpus(capsys, monkeypatch, 2, "verify", "all", "--samples", "1",
                                "--format", "json")
        names = list(json.loads(out)["meta"]["suite_seconds"])
        first = list(qchar2.cli.START_FIRST)
        assert names == sorted(names)
        assert started == first + [name for name in names if name not in first]

    def test_start_first_names_are_suites_verify_all_runs(self, capsys, monkeypatch):
        import qchar2.cli

        _, out, _ = run_on_cpus(capsys, monkeypatch, 1, "verify", "all", "--samples", "1",
                                "--format", "json")
        names = json.loads(out)["meta"]["suite_seconds"]
        assert qchar2.cli.START_FIRST
        for name in qchar2.cli.START_FIRST:
            assert name in SUITES and name in names, name

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_error_in_name_order_wins_over_the_first_started(self, capsys, monkeypatch, cpus):
        import qchar2.cli
        import qchar2.suites

        def coru_fails(**kwargs):
            raise QChar2Error("coru failed")

        def oracle_fails(**kwargs):
            raise RefutationCandidate("oracle failed")

        assert qchar2.cli.START_FIRST[0] == "oracle" and "coru" not in qchar2.cli.START_FIRST
        monkeypatch.setitem(qchar2.suites.SUITES, "coru", coru_fails)
        monkeypatch.setitem(qchar2.suites.SUITES, "oracle", oracle_fails)
        code, out, err = run_on_cpus(capsys, monkeypatch, cpus, "verify", "all", "--samples", "1")
        assert code == 2 and out == ""
        assert err == "error: coru failed\n"
        assert multiprocessing.active_children() == []


def _error_classes(cls=QChar2Error):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", sorted(set(_error_classes()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_errors_survive_a_pickle_round_trip(cls):
    # a worker's exception reaches the parent pickled
    if cls is SearchExhausted:
        exc = cls("budget 64 spent", report={"budget": 64, "tried": 65})
    elif cls is ParseError:
        exc = cls("expected identifier", text="[1,x]", pos=3)
    else:
        exc = cls("the message")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)
    if cls is ParseError:
        assert (back.text, back.pos) == ("[1,x]", 3)
    if cls is SearchExhausted:
        assert back.report == {"budget": 64, "tried": 65}
