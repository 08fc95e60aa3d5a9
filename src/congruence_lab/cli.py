"""Command-line front end.

Subcommands: congruences | commutator | spectrum | reticulation | center |
cblp | verify | report.  Inputs are algebra documents (JSON operation
tables); congruence arguments are block arrays like ``[0,1,0,1,0,1]``.

Exit codes: 0 pass, 1 falsification, 2 input error, 3 hypothesis failure.
Text and JSON output render the same report dictionaries, so the verdicts
are identical in both formats.  The environment variable
``CONGRUENCE_LAB_CAP`` overrides both size caps; explicit flags win over it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial

from . import config, verify
from .algebra import FiniteAlgebra, load_algebra
from .builders import ring_zn
from .commutator import commutator, surrogate_checks
from .congruences import con_lattice, congruence_from_blocks
from .errors import (
    CongruenceLabError,
    Falsified,
    HypothesisNotMet,
    InputError,
    SizeBudgetExceeded,
    TheoryHypothesisFailed,
)
from .lifting import boolean_center_of_congruences, cblp_characterization
from .reticulation import build_reticulation, check_spec_homeomorphism
from .spectrum import is_hyperarchimedean, is_semiprime, spectrum

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3


class RunConfig:
    """One resolved invocation: exactly one command over some input paths."""

    __slots__ = ("command", "paths", "json_output", "cap_con", "cap_matrix", "jobs", "extra")

    def __init__(
        self, command, paths, json_output=False, cap_con=config.DEFAULT_CON_CAP,
        cap_matrix=config.DEFAULT_MATRIX_CAP, jobs=1, extra=None,
    ):
        if cap_con <= 0 or cap_matrix <= 0 or jobs <= 0:
            raise InputError("caps and job counts must be positive")
        self.command = command
        self.paths = paths
        self.json_output = json_output
        self.cap_con = cap_con
        self.cap_matrix = cap_matrix
        self.jobs = jobs
        self.extra = {} if extra is None else extra


def _apply_caps(caps: tuple[int, int]) -> tuple[int, int]:
    """Set the process-wide ``(CON_CAP, MATRIX_CAP)``; return the previous pair."""
    previous = config.CON_CAP, config.MATRIX_CAP
    config.CON_CAP, config.MATRIX_CAP = caps
    return previous


def _load(path: str) -> FiniteAlgebra:
    try:
        text = open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from None
    return load_algebra(text)


def _parse_blocks(alg: FiniteAlgebra, text: str):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raise InputError(f"congruence argument must be a JSON block array: {text!r}")
    if not isinstance(raw, list):
        raise InputError(f"congruence argument must be a JSON block array: {text!r}")
    return congruence_from_blocks(alg, raw)


def _ring_labels(alg: FiniteAlgebra) -> dict[tuple, str]:
    """theta_d names for the congruences of Z_n inputs; sugar only."""
    if alg != ring_zn(alg.size):
        return {}
    n = alg.size
    out = {}
    for d in range(1, n + 1):
        if n % d == 0:
            out[tuple(x % d for x in range(n))] = f"theta_{d}"
    return out


# ---------------------------------------------------------------------------
# report builders (dictionaries rendered by both output modes)


def report_congruences(alg: FiniteAlgebra) -> dict:
    lattice = con_lattice(alg)
    labels = _ring_labels(alg)
    covers = [
        [i, j]
        for j in range(len(lattice))
        for i in lattice.lower_covers[j]
    ]
    return {
        "algebra": alg.name,
        "size": alg.size,
        "count": len(lattice),
        "congruences": [list(c.blocks) for c in lattice.congruences],
        "labels": {
            i: labels[c.blocks]
            for i, c in enumerate(lattice.congruences)
            if c.blocks in labels
        },
        "bottom": lattice.bottom_index,
        "top": lattice.top_index,
        "join_irreducibles": lattice.join_irreducible_indices(),
        "hasse_covers": covers,
    }


def report_commutator(alg, alpha, beta) -> dict:
    value = commutator(alg, alpha, beta)
    return {
        "algebra": alg.name,
        "alpha": list(alpha.blocks),
        "beta": list(beta.blocks),
        "commutator": list(value.blocks),
    }


def report_spectrum(alg) -> dict:
    data = spectrum(alg)
    return {
        "algebra": alg.name,
        "primes": [list(p.blocks) for p in data.primes],
        "maximals": [list(m.blocks) for m in data.maximals],
        "rad": list(data.rad.blocks),
        "nilradical": list(data.nilradical.blocks),
        "semiprime": is_semiprime(alg),
        "hyperarchimedean": is_hyperarchimedean(alg),
    }


def report_reticulation(alg) -> dict:
    retic = build_reticulation(alg)
    homeo = check_spec_homeomorphism(alg)
    lattice = con_lattice(alg)
    return {
        "algebra": alg.name,
        "elements": [list(e.blocks) for e in retic.elements],
        "lattice": retic.serialize(),
        "lambda": {
            json.dumps(list(c.blocks)): retic.lambda_index(c)
            for c in lattice.congruences
        },
        "spec_homeomorphism_ok": homeo.ok,
        "spec_homeomorphism_failures": list(homeo.failures),
    }


def report_center(alg) -> dict:
    center = boolean_center_of_congruences(alg)
    return {
        "algebra": alg.name,
        "elements": [list(e.blocks) for e in center.elements],
        "complements": [
            [list(e.blocks), list(center.complement[e.blocks].blocks)]
            for e in center.elements
        ],
        "atoms": [list(a.blocks) for a in center.atoms],
    }


def report_cblp(alg, theta=None) -> dict:
    lattice = con_lattice(alg)
    targets = [theta] if theta is not None else list(lattice.congruences)
    reports = [cblp_characterization(alg, t) for t in targets]
    return {
        "algebra": alg.name,
        "reports": [r.to_json_dict() for r in reports],
        "all_cblp": all(r.cblp for r in reports),
        "exploratory": any(r.exploratory for r in reports),
    }


def report_full(alg) -> dict:
    return {
        "algebra": alg.name,
        "surrogates": {
            "ok": surrogate_checks(alg).ok,
            "failures": surrogate_checks(alg).failures(),
        },
        "congruences": report_congruences(alg),
        "center": report_center(alg),
        "spectrum": report_spectrum(alg),
        "reticulation": report_reticulation(alg),
        "cblp": report_cblp(alg),
    }


def _verify_one_path(caps: tuple[int, int], path: str) -> dict:
    """Worker for verify: self-contained so it can run in a subprocess, and
    failures in one input never mask the others.  A budget error is that
    input's error (exit 2); a falsification is a failed check on it (exit 1).

    The caps ``(cap_con, cap_matrix)`` are passed in and applied here, since
    a worker started by ``spawn`` or ``forkserver`` re-imports ``config``
    with the default budgets."""
    _apply_caps(caps)
    result = {
        "path": path,
        "algebra": None,
        "exploratory": False,
        "elapsed": 0.0,
        "checks": [],
        "ok": False,
        "input_error": None,
    }
    try:
        alg = _load(path)
    except InputError as exc:
        result["input_error"] = str(exc)
        return result
    result["algebra"] = alg.name
    try:
        report = verify.verify_algebra(alg)
    except SizeBudgetExceeded as exc:
        result["input_error"] = str(exc)
        return result
    except Falsified as exc:
        result["checks"] = [{"name": "falsified", "passed": False, "detail": str(exc)}]
        return result
    result.update(
        exploratory=report.exploratory,
        elapsed=round(report.elapsed, 3),
        checks=[
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
        ok=report.ok,
    )
    return result


def report_verify(paths: list[str], jobs: int, caps: tuple[int, int]) -> dict:
    worker = partial(_verify_one_path, caps)
    if jobs > 1 and len(paths) > 1:
        # imported here: the pool's modules cost a single-process run time
        # and memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, paths))
    else:
        results = [worker(p) for p in paths]
    return {
        "results": results,
        "ok": all(r["ok"] for r in results),
        "input_errors": [r["path"] for r in results if r["input_error"]],
        "exploratory": [r["path"] for r in results if r["exploratory"]],
    }


# ---------------------------------------------------------------------------
# text renderers


def _print_congruences(rep):
    print(f"{rep['algebra']}: |Con| = {rep['count']}")
    if rep["count"] == 1:
        print("  Con = {bottom = top}")
    for i, blocks in enumerate(rep["congruences"]):
        tags = []
        if i == rep["bottom"]:
            tags.append("bottom")
        if i == rep["top"]:
            tags.append("top")
        if i in rep["join_irreducibles"]:
            tags.append("join-irreducible")
        label = rep["labels"].get(i) or rep["labels"].get(str(i))
        name = f" {label}" if label else ""
        suffix = f"  ({', '.join(tags)})" if tags else ""
        print(f"  [{i}]{name} {json.dumps(blocks)}{suffix}")
    print("  Hasse covers (lower, upper):", rep["hasse_covers"])


def _print_spectrum(rep):
    print(f"{rep['algebra']}: primes={len(rep['primes'])}")
    for p in rep["primes"]:
        print(f"  prime   {json.dumps(p)}")
    for m in rep["maximals"]:
        print(f"  maximal {json.dumps(m)}")
    print(f"  Rad        = {json.dumps(rep['rad'])}")
    print(f"  nilradical = {json.dumps(rep['nilradical'])}")
    print(f"  semiprime={rep['semiprime']} hyperarchimedean={rep['hyperarchimedean']}")


def _print_cblp(rep):
    reports = rep["reports"]
    lifted = sum(1 for r in reports if r["cblp"])
    print(f"{rep['algebra']}: {lifted} of {len(reports)} congruences have CBLP")
    if rep["exploratory"]:
        print("  EXPLORATORY: the reticulation does not preserve the Boolean center")
    for r in reports:
        flags = "".join(
            key for key, value in (("1", r["thm63"]["c1"]), ("2", r["thm63"]["c2"]),
                                   ("3", r["thm63"]["c3"]), ("4", r["thm63"]["c4"]))
            if value
        )
        print(
            f"  theta={json.dumps(r['theta'])} cblp={r['cblp']} "
            f"regular={r['regular']} thm63={{{flags}}} "
            f"diamond={json.dumps(r['diamond'])}"
        )


def _print_verify(rep):
    for result in rep["results"]:
        if result["input_error"]:
            print(f"{'ERROR':11s} {result['path']}: {result['input_error']}")
            continue
        status = (
            "EXPLORATORY"
            if result["exploratory"]
            else ("PASS" if result["ok"] else "FAIL")
        )
        print(
            f"{status:11s} {result['path']} "
            f"({result['algebra']}, {len(result['checks'])} checks, "
            f"{result['elapsed']}s)"
        )
        by_suite: dict[str, list[bool]] = {}
        for check in result["checks"]:
            suite = check["name"].split(".", 1)[0]
            by_suite.setdefault(suite, []).append(check["passed"])
        matrix = "  ".join(
            f"{suite} {sum(flags)}/{len(flags)}" for suite, flags in by_suite.items()
        )
        print(f"            {matrix}")
        for check in result["checks"]:
            if not check["passed"]:
                print(f"    FAIL {check['name']} {check['detail']}")
    if rep["exploratory"]:
        print("EXPLORATORY inputs (hypothesis surrogates failed):")
        for path in rep["exploratory"]:
            print(f"  {path}")
    print("verify:", "PASS" if rep["ok"] else "FAIL")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, so repeated ``main`` calls share it."""
    parser = argparse.ArgumentParser(
        prog="congruence-lab",
        description="Congruence lattices, commutators, spectra, reticulations "
        "and Boolean lifting for finite algebras given as operation tables.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    parser.add_argument("--cap-con", type=int, default=None, metavar="N",
                        help="cap on |Con(A)|")
    parser.add_argument("--cap-matrix", type=int, default=None, metavar="N",
                        help="cap on the matrix subalgebra budget")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel workers for multi-file verify")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("congruences", help="Con(A), join-irreducibles, Hasse covers")
    p.add_argument("path")
    p = sub.add_parser("commutator", help="[alpha, beta] for two block arrays")
    p.add_argument("path")
    p.add_argument("alpha")
    p.add_argument("beta")
    p = sub.add_parser("spectrum", help="primes, maximals, radicals")
    p.add_argument("path")
    p = sub.add_parser("reticulation", help="the reticulation lattice and checks")
    p.add_argument("path")
    p = sub.add_parser("center", help="the Boolean center of Con(A)")
    p.add_argument("path")
    p = sub.add_parser("cblp", help="lifting reports (all congruences or one)")
    p.add_argument("path")
    p.add_argument("theta", nargs="?", default=None)
    p = sub.add_parser("verify", help="run the full property suites")
    p.add_argument("paths", nargs="+")
    p = sub.add_parser("report", help="combined single-algebra report")
    p.add_argument("path")
    return parser


def _config_from_args(args) -> RunConfig:
    env_cap = os.environ.get("CONGRUENCE_LAB_CAP")
    env_value = None
    if env_cap is not None:
        try:
            env_value = int(env_cap)
        except ValueError:
            raise InputError(f"CONGRUENCE_LAB_CAP must be an integer, got {env_cap!r}")

    def resolve(flag, default):
        # a given value, zero included, reaches RunConfig's positivity check
        return next(v for v in (flag, env_value, default) if v is not None)

    cap_con = resolve(args.cap_con, config.DEFAULT_CON_CAP)
    cap_matrix = resolve(args.cap_matrix, config.DEFAULT_MATRIX_CAP)
    paths = getattr(args, "paths", None) or [args.path]
    return RunConfig(
        command=args.command,
        paths=paths,
        json_output=args.json,
        cap_con=cap_con,
        cap_matrix=cap_matrix,
        jobs=args.jobs,
        extra={
            "alpha": getattr(args, "alpha", None),
            "beta": getattr(args, "beta", None),
            "theta": getattr(args, "theta", None),
        },
    )


def run(config: RunConfig) -> int:
    """Run one command under its caps, and restore the caps on return, so
    that an in-process call leaves the next one at the budgets it had."""
    caps = (config.cap_con, config.cap_matrix)
    previous = _apply_caps(caps)
    try:
        if config.command == "verify":
            rep = report_verify(config.paths, config.jobs, caps)
            if config.json_output:
                print(json.dumps(rep, indent=2))
            else:
                _print_verify(rep)
            if rep["input_errors"]:
                return EXIT_INPUT
            return EXIT_OK if rep["ok"] else EXIT_FALSIFIED

        alg = _load(config.paths[0])
        if config.command == "congruences":
            rep = report_congruences(alg)
            printer = _print_congruences
        elif config.command == "commutator":
            alpha = _parse_blocks(alg, config.extra["alpha"])
            beta = _parse_blocks(alg, config.extra["beta"])
            rep = report_commutator(alg, alpha, beta)
            printer = None
        elif config.command == "spectrum":
            rep = report_spectrum(alg)
            printer = _print_spectrum
        elif config.command == "reticulation":
            rep = report_reticulation(alg)
            printer = None
        elif config.command == "center":
            rep = report_center(alg)
            printer = None
        elif config.command == "cblp":
            theta = _parse_blocks(alg, config.extra["theta"]) if config.extra["theta"] else None
            rep = report_cblp(alg, theta)
            printer = _print_cblp
        elif config.command == "report":
            rep = report_full(alg)
            printer = None
        else:  # pragma: no cover - argparse restricts the choices
            raise InputError(f"unknown command {config.command!r}")

        if config.json_output or printer is None:
            print(json.dumps(rep, indent=2))
        else:
            printer(rep)
        return EXIT_OK
    finally:
        _apply_caps(previous)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except Falsified as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except (TheoryHypothesisFailed, HypothesisNotMet) as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (InputError, SizeBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CongruenceLabError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
