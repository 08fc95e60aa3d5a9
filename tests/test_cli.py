"""The command-line front end: subcommands, exit codes, output formats."""

import json

import pytest

from congruence_lab import dump_algebra
from congruence_lab.builders import chain_lattice, pentagon, pointed_pair, ring_zn
from congruence_lab.cli import EXIT_FALSIFIED, EXIT_HYPOTHESIS, EXIT_INPUT, EXIT_OK, main


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


def test_verify_pentagon_passes(tmp_path, capsys):
    path = tmp_path / "n5.json"
    path.write_text(dump_algebra(pentagon()))
    assert main(["verify", str(path)]) == EXIT_OK


def test_verify_isolates_bad_input(z6_path, bad_path, capsys):
    assert main(["verify", z6_path, bad_path]) == EXIT_INPUT
    out = capsys.readouterr().out
    assert "PASS" in out  # the good file still ran
    assert "ERROR" in out


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


def test_report_subcommand(z6_path, capsys):
    assert main(["report", z6_path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"algebra", "congruences", "center", "spectrum", "reticulation", "cblp"}
    assert doc["cblp"]["all_cblp"] is True


def test_cap_flag_triggers_budget_error(z12_path, capsys):
    assert main(["--cap-con", "3", "congruences", z12_path]) == EXIT_INPUT
    assert "exceeds the cap" in capsys.readouterr().err


def test_env_cap_override(z12_path, capsys, monkeypatch):
    monkeypatch.setenv("CONGRUENCE_LAB_CAP", "3")
    assert main(["congruences", z12_path]) == EXIT_INPUT
    # explicit flag wins over the environment
    capsys.readouterr()
    assert main(["--cap-con", "100", "congruences", z12_path]) == EXIT_OK


def test_env_cap_must_be_integer(z12_path, capsys, monkeypatch):
    monkeypatch.setenv("CONGRUENCE_LAB_CAP", "lots")
    assert main(["congruences", z12_path]) == EXIT_INPUT


def test_oracle_all_pairs_flag(z12_path, capsys):
    assert main(["--oracle-all-pairs", "spectrum", z12_path]) == EXIT_OK
    doc = capsys.readouterr().out
    assert "primes=2" in doc


def test_bad_congruence_argument(z12_path, capsys):
    assert main(["commutator", z12_path, "nonsense", "[0]"]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["commutator", z12_path, "[0,0,0]", "[0,0,0]"]) == EXIT_INPUT


def test_falsified_cross_check_exits_one(tmp_path, monkeypatch, capsys):
    """A failing internal cross-check is an error mapped to exit 1, not an
    assert that vanishes under python -O."""
    from congruence_lab import lifting
    from congruence_lab.algebra import product

    path = tmp_path / "z3xz2.json"
    path.write_text(dump_algebra(product(ring_zn(3), ring_zn(2))))
    # break the residuation route of the Boolean-center cross-check: the
    # annihilator of each complemented congruence becomes the congruence itself
    monkeypatch.setattr(lifting, "residuation", lambda alg, alpha, beta: alpha)
    assert main(["center", str(path)]) == EXIT_FALSIFIED
    assert "annihilator of a complemented congruence" in capsys.readouterr().err
