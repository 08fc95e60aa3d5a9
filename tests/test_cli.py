"""The command-line front end: subcommands, exit codes, output formats."""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import pytest

from congruence_lab import dump_algebra
from congruence_lab.builders import chain_lattice, pentagon, pointed_pair, ring_zn
from congruence_lab.cli import EXIT_FALSIFIED, EXIT_HYPOTHESIS, EXIT_INPUT, EXIT_OK, main
from congruence_lab.commutator import MATRIX_CAP
from congruence_lab.congruences import CON_CAP, all_congruences
from congruence_lab.errors import NotALattice, TheoryHypothesisFailed


@pytest.fixture()
def z6_path(tmp_path):
    path = tmp_path / "z6.json"
    path.write_text(dump_algebra(ring_zn(6)))
    return str(path)


@pytest.fixture()
def z12_path(tmp_path):
    path = tmp_path / "z12.json"
    path.write_text(dump_algebra(ring_zn(12)))
    return str(path)


@pytest.fixture()
def bad_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"name": "bad", "size": 2, "operations": '
        '[{"name": "f", "arity": 2, "table": [0, 1, 0]}]}'
    )
    return str(path)


@pytest.fixture()
def flagged_path(tmp_path):
    path = tmp_path / "flagged.json"
    path.write_text(dump_algebra(pointed_pair()))
    return str(path)


def test_congruences_lists_four(z6_path, capsys):
    assert main(["congruences", z6_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "|Con| = 4" in out
    assert "theta_2" in out and "theta_6" in out


def test_congruences_bad_input(bad_path, capsys):
    assert main(["congruences", bad_path]) == EXIT_INPUT
    assert "table has 3 entries" in capsys.readouterr().err


def test_congruences_missing_file(capsys):
    assert main(["congruences", "/nonexistent/algebra.json"]) == EXIT_INPUT


def test_congruences_one_element(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(dump_algebra(chain_lattice(1)))
    assert main(["congruences", str(path)]) == EXIT_OK
    assert "bottom = top" in capsys.readouterr().out


def test_commutator_subcommand(z12_path, capsys):
    t2 = json.dumps([x % 2 for x in range(12)])
    assert main(["commutator", z12_path, t2, t2]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["commutator"] == [x % 4 for x in range(12)]


def test_spectrum_subcommand(z12_path, capsys):
    assert main(["spectrum", z12_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "primes=2" in out
    assert "Rad" in out


def test_spectrum_json_matches_text_verdicts(z12_path, capsys):
    main(["--json", "spectrum", z12_path])
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["primes"]) == 2
    assert doc["rad"] == [x % 6 for x in range(12)]
    assert doc["semiprime"] is False


def test_reticulation_subcommand(z12_path, capsys):
    assert main(["reticulation", z12_path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["lattice"]["size"] == 4
    assert doc["spec_homeomorphism_ok"] is True


def test_center_subcommand(z12_path, capsys):
    assert main(["center", z12_path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 4
    assert len(doc["atoms"]) == 2


def test_cblp_all_congruences(z12_path, capsys):
    assert main(["cblp", z12_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "6 of 6 congruences have CBLP" in out


def test_cblp_single_congruence(z12_path, capsys):
    blocks = json.dumps([x % 6 for x in range(12)])
    assert main(["--json", "cblp", z12_path, blocks]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["reports"]) == 1
    report = doc["reports"][0]
    assert report["cblp"] is True
    assert report["thm63"] == {"c1": True, "c2": True, "c3": True, "c4": True}


def test_cblp_hypothesis_failure_exit_code(flagged_path, capsys):
    assert main(["cblp", flagged_path]) == EXIT_HYPOTHESIS
    assert "hypothesis failure" in capsys.readouterr().err


def test_verify_pass_and_exploratory(z6_path, flagged_path, capsys):
    assert main(["verify", z6_path, flagged_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "EXPLORATORY" in out


def test_verify_top_commutator_failure_is_exploratory(tmp_path, capsys):
    from test_verify import R338

    path = tmp_path / "r338.json"
    path.write_text(dump_algebra(R338))
    assert main(["verify", str(path)]) == EXIT_OK
    assert "EXPLORATORY" in capsys.readouterr().out


def test_verify_pentagon_passes(tmp_path, capsys):
    path = tmp_path / "n5.json"
    path.write_text(dump_algebra(pentagon()))
    assert main(["verify", str(path)]) == EXIT_OK


def test_verify_isolates_bad_input(z6_path, bad_path, capsys):
    assert main(["verify", z6_path, bad_path]) == EXIT_INPUT
    out = capsys.readouterr().out
    assert "PASS" in out  # the good file still ran
    assert "ERROR" in out


def test_verify_isolates_budget_error(tmp_path, capsys, set_cap):
    """A budget error on one input is that input's ERROR; the others still
    report, and the run exits 2."""
    set_cap(CON_CAP, CON_CAP.get())  # reset after
    small, large = tmp_path / "z2.json", tmp_path / "z12.json"
    small.write_text(dump_algebra(ring_zn(2)))
    large.write_text(dump_algebra(ring_zn(12)))
    assert main(["--cap-con", "3", "verify", str(small), str(large)]) == EXIT_INPUT
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS") and str(small) in line for line in lines)
    assert any(
        line.startswith("ERROR") and str(large) in line and "exceeds the cap of 3" in line
        for line in lines
    )


def test_verify_caps_reach_spawned_workers(tmp_path, capsys, monkeypatch, set_cap):
    """The caps are passed to each verify worker, so a worker started by
    spawn (whose context holds the default caps) still applies them."""
    import concurrent.futures

    set_cap(CON_CAP, CON_CAP.get())  # reset after
    # cli imports the pool only on the --jobs > 1 path, from this module
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")),
    )
    small, large = tmp_path / "z2.json", tmp_path / "z12.json"
    small.write_text(dump_algebra(ring_zn(2)))
    large.write_text(dump_algebra(ring_zn(12)))
    argv = ["--cap-con", "3", "--jobs", "2", "verify", str(small), str(large)]
    assert main(argv) == EXIT_INPUT
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS") and str(small) in line for line in lines)
    assert any(
        line.startswith("ERROR") and str(large) in line and "exceeds the cap of 3" in line
        for line in lines
    )


def test_verify_isolates_falsification(z6_path, z12_path, capsys, monkeypatch):
    """A falsification raised on one input is a failed check on it (exit 1);
    the other inputs still report."""
    from congruence_lab import verify as verify_mod
    from congruence_lab.errors import Falsified

    real = verify_mod.verify_algebra

    def falsify_z12(alg):
        if alg.size == 12:
            raise Falsified("synthetic falsification")
        return real(alg)

    monkeypatch.setattr(verify_mod, "verify_algebra", falsify_z12)
    assert main(["verify", z6_path, z12_path]) == EXIT_FALSIFIED
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS") and z6_path in line for line in lines)
    assert any(line.startswith("FAIL") and z12_path in line for line in lines)
    assert "    FAIL falsified synthetic falsification" in lines


def test_verify_falsification_exit_code(z6_path, capsys, monkeypatch):
    from congruence_lab import verify as verify_mod
    from congruence_lab.verify import AlgebraReport, Check

    def fake_verify(alg):
        return AlgebraReport(
            algebra=alg,
            exploratory=False,
            checks=[Check("stub.broken", False, "synthetic falsification")],
        )

    monkeypatch.setattr(verify_mod, "verify_algebra", fake_verify)
    assert main(["verify", z6_path]) == EXIT_FALSIFIED
    assert "FAIL" in capsys.readouterr().out


def test_verify_parallel_jobs(z6_path, z12_path, capsys):
    assert main(["--jobs", "2", "verify", z6_path, z12_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") >= 2


def test_consecutive_calls_parse_independently(z6_path, z12_path, capsys):
    """One parser serves every main call in a process; the flags and the
    command of one call do not reach the next."""
    from congruence_lab.cli import _build_parser

    assert _build_parser() is _build_parser()
    assert main(["--json", "--cap-con", "4", "verify", z6_path, z12_path]) == EXIT_INPUT
    first = json.loads(capsys.readouterr().out)
    assert first["input_errors"] == [z12_path]
    assert main(["congruences", z12_path]) == EXIT_OK
    second = capsys.readouterr().out
    assert second.startswith("Z_12: |Con| = 6")  # text, under the default cap


def test_report_subcommand(z6_path, capsys):
    assert main(["report", z6_path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"algebra", "congruences", "center", "spectrum", "reticulation", "cblp"}
    assert doc["cblp"]["all_cblp"] is True


def test_cap_flag_triggers_budget_error(z12_path, capsys):
    assert main(["--cap-con", "3", "congruences", z12_path]) == EXIT_INPUT
    assert "exceeds the cap" in capsys.readouterr().err


def test_caps_do_not_outlive_the_call(tmp_path, z12_path, capsys):
    """A capped in-process call, passing or refused, leaves the next library
    call at the budgets it had before."""
    z2_path = tmp_path / "z2.json"
    z2_path.write_text(dump_algebra(ring_zn(2)))
    before = (CON_CAP.get(), MATRIX_CAP.get())
    assert main(["--cap-con", "3", "--cap-matrix", "5", "congruences", str(z2_path)]) == EXIT_OK
    assert (CON_CAP.get(), MATRIX_CAP.get()) == before
    assert len(all_congruences(ring_zn(12))) == 6
    assert main(["--cap-con", "3", "congruences", z12_path]) == EXIT_INPUT
    assert (CON_CAP.get(), MATRIX_CAP.get()) == before
    assert len(all_congruences(ring_zn(12))) == 6


def test_caps_of_a_call_stay_in_its_thread(z12_path, capsys, monkeypatch):
    """While a capped call runs in one thread, held inside ``cli._load``, a
    library call in another thread runs under the default caps."""
    import threading

    from congruence_lab import cli

    entered, release, exits = threading.Event(), threading.Event(), []
    real_load = cli._load

    def held_load(path):
        entered.set()
        release.wait(timeout=30)
        return real_load(path)

    monkeypatch.setattr(cli, "_load", held_load)
    capped = threading.Thread(
        target=lambda: exits.append(main(["--cap-con", "3", "congruences", z12_path]))
    )
    capped.start()
    try:
        assert entered.wait(timeout=30)
        assert len(all_congruences(ring_zn(12))) == 6
    finally:
        release.set()
        capped.join(timeout=30)
    assert exits == [EXIT_INPUT]
    assert "exceeds the cap of 3" in capsys.readouterr().err


def test_env_cap_override(z12_path, capsys, monkeypatch):
    monkeypatch.setenv("CONGRUENCE_LAB_CAP", "3")
    assert main(["congruences", z12_path]) == EXIT_INPUT
    # explicit flag wins over the environment
    capsys.readouterr()
    assert main(["--cap-con", "100", "congruences", z12_path]) == EXIT_OK


@pytest.mark.parametrize(
    "flags, env",
    [(["--cap-con", "0"], None), (["--cap-matrix", "0"], None), ([], "0")],
    ids=["cap-con", "cap-matrix", "env"],
)
def test_zero_cap_is_rejected(z12_path, capsys, monkeypatch, flags, env):
    """A zero cap is refused like a negative one, not read as the default."""
    if env is not None:
        monkeypatch.setenv("CONGRUENCE_LAB_CAP", env)
    assert main([*flags, "congruences", z12_path]) == EXIT_INPUT
    assert "caps and job counts must be positive" in capsys.readouterr().err


def test_env_cap_must_be_integer(z12_path, capsys, monkeypatch):
    monkeypatch.setenv("CONGRUENCE_LAB_CAP", "lots")
    assert main(["congruences", z12_path]) == EXIT_INPUT


def test_bad_congruence_argument(z12_path, capsys):
    assert main(["commutator", z12_path, "nonsense", "[0]"]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["commutator", z12_path, "[0,0,0]", "[0,0,0]"]) == EXIT_INPUT


def test_falsified_cross_check_exits_one(tmp_path, monkeypatch, capsys):
    """A failing internal cross-check is an error mapped to exit 1, not an
    assert that vanishes under python -O."""
    from importlib import import_module

    from congruence_lab.algebra import product
    from congruence_lab.congruences import con_lattice

    from conftest import fresh_copy

    alg = fresh_copy(product(ring_zn(3), ring_zn(2)))
    path = tmp_path / "z3xz2.json"
    path.write_text(dump_algebra(alg))
    # with the spectrum stored, the witness search of clopens_of_max reads
    # every commutator as nabla: no pair has [alpha, beta] <= Rad(A), so the
    # clopens that the direct enumeration finds have no witness
    spectrum = import_module("congruence_lab.spectrum")
    spectrum.spectrum_index(con_lattice(alg), False)
    monkeypatch.setattr(spectrum, "commutator_index", lambda lattice, i, j: lattice.top_index)
    assert main(["verify", str(path)]) == EXIT_FALSIFIED
    assert "    FAIL falsified no witness pair for clopen" in capsys.readouterr().out


REPO = Path(__file__).resolve().parent.parent


def test_verify_json_contract_on_corpus(capsys, monkeypatch):
    """``--json --jobs 1 verify corpus/*.json`` with every ``elapsed`` removed
    is pinned byte for byte in tests/data/verify_corpus.json."""
    monkeypatch.chdir(REPO)
    paths = sorted(f"corpus/{path.name}" for path in (REPO / "corpus").glob("*.json"))
    assert main(["--json", "--jobs", "1", "verify", *paths]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    for result in report["results"]:
        del result["elapsed"]
    expected = (REPO / "tests" / "data" / "verify_corpus.json").read_text()
    assert json.dumps(report, indent=2) + "\n" == expected


def test_verify_json_contract_on_ladder(capsys, monkeypatch, tmp_path):
    """``--json --jobs 1 verify`` on B_4, Z_24 and Z_2xZ_9 documents written
    from the builders, with every ``elapsed`` removed, is pinned byte for
    byte in tests/data/verify_ladder.json, and on C_9, verified on its own,
    in tests/data/verify_ladder_c9.json; the paths are bare file names."""
    from congruence_lab.algebra import product
    from congruence_lab.builders import boolean_lattice

    runs = {
        "verify_ladder.json": {
            "B_4.json": boolean_lattice(4),
            "Z_24.json": ring_zn(24),
            "Z_2xZ_9.json": product(ring_zn(2), ring_zn(9)),
        },
        "verify_ladder_c9.json": {"C_9.json": chain_lattice(9)},
    }
    monkeypatch.chdir(tmp_path)
    for pinned, ladder in runs.items():
        for name, alg in ladder.items():
            (tmp_path / name).write_text(dump_algebra(alg))
        assert main(["--json", "--jobs", "1", "verify", *ladder]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        for result in report["results"]:
            del result["elapsed"]
        expected = (REPO / "tests" / "data" / pinned).read_text()
        assert json.dumps(report, indent=2) + "\n" == expected


def test_single_input_commands_match_pins(capsys, monkeypatch):
    """Every single-input command on corpus/z_12.json, in JSON and in text,
    with block arguments for commutator and cblp, and ``--json cblp`` on
    corpus/n5.json, whose theta = [0, 1, 1, 3, 4] is the one corpus target
    without CBLP: the stdout and exit code are pinned byte for byte in
    tests/data/cli_z12.json."""
    from congruence_lab.cli import COMMANDS

    monkeypatch.chdir(REPO)
    cases = json.loads((REPO / "tests" / "data" / "cli_z12.json").read_text())
    assert set(COMMANDS) <= {arg for case in cases for arg in case["argv"]}
    for case in cases:
        assert main(case["argv"]) == case["exit"], case["argv"]
        out, err = capsys.readouterr()
        assert (out, err) == (case["stdout"], ""), case["argv"]


@pytest.mark.parametrize("error", [TheoryHypothesisFailed, NotALattice], ids=lambda e: e.__name__)
def test_verify_isolates_hypothesis_failure(capsys, monkeypatch, error):
    """A library error other than a falsification, raised while verifying
    one input, is that input's ERROR; the other inputs still report, and
    the run exits 2."""
    from congruence_lab import verify as verify_mod

    real = dict(verify_mod.SUITES)["spectrum"]

    def spectrum_failing_on_z12(alg):
        if alg.size == 12:
            raise error("planted failure on Z_12")
        return real(alg)

    suites = [
        (label, spectrum_failing_on_z12 if label == "spectrum" else suite)
        for label, suite in verify_mod.SUITES
    ]
    monkeypatch.setattr(verify_mod, "SUITES", suites)
    monkeypatch.chdir(REPO)
    paths = ["corpus/z_6.json", "corpus/z_12.json", "corpus/z_2.json"]
    assert main(["verify", *paths]) == EXIT_INPUT
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS") and "corpus/z_6.json " in line for line in lines)
    assert any(line.startswith("PASS") and "corpus/z_2.json " in line for line in lines)
    assert f"{'ERROR':11s} corpus/z_12.json: planted failure on Z_12" in lines
    assert lines[-1] == "verify: FAIL"
