"""Command-line front end.

Subcommands: congruences | commutator | spectrum | reticulation | center |
cblp | verify | report.  Inputs are algebra documents (JSON operation
tables); congruence arguments are block arrays like ``[0,1,0,1,0,1]``.

Exit codes: 0 pass, 1 falsification, 2 input error, 3 hypothesis failure.
``verify`` reports every input on its own: a falsification on one input is
a failed check on it (exit 1), and any other library error raised while
verifying it, a budget or hypothesis failure included, is that input's
error (exit 2); the other inputs still report.
Text and JSON output render the same report dictionaries, so the verdicts
are identical in both formats.  Each size cap is ``--cap-con`` or
``--cap-matrix`` when given, else the environment variable
``CONGRUENCE_LAB_CAP``, else the default; a zero from either is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache, partial

from . import verify
from .algebra import FiniteAlgebra, load_algebra
from .builders import ring_zn
from .commutator import DEFAULT_MATRIX_CAP, MATRIX_CAP, commutator, surrogate_checks
from .congruences import CON_CAP, DEFAULT_CON_CAP, con_lattice, congruence_from_blocks
from .errors import (
    CongruenceLabError,
    Falsified,
    HypothesisNotMet,
    InputError,
    TheoryHypothesisFailed,
)
from .lifting import boolean_center_of_congruences, cblp_characterization
from .reticulation import build_reticulation, check_spec_homeomorphism
from .spectrum import is_hyperarchimedean, is_semiprime, spectrum

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3


@contextmanager
def _caps_set(caps: tuple[int, int]):
    """Set ``(CON_CAP, MATRIX_CAP)`` in the current context for the block."""
    con, matrix = CON_CAP.set(caps[0]), MATRIX_CAP.set(caps[1])
    try:
        yield
    finally:
        CON_CAP.reset(con)
        MATRIX_CAP.reset(matrix)


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
        raw = None
    if not isinstance(raw, list):
        raise InputError(f"congruence argument must be a JSON block array: {text!r}")
    return congruence_from_blocks(alg, raw)


def _ring_labels(alg: FiniteAlgebra) -> dict[tuple, str]:
    """theta_d names for the congruences of Z_n inputs; sugar only."""
    if alg != ring_zn(alg.size):
        return {}
    n = alg.size
    return {tuple(x % d for x in range(n)): f"theta_{d}" for d in range(1, n + 1) if n % d == 0}


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
    surrogates = surrogate_checks(alg)
    return {
        "algebra": alg.name,
        "surrogates": {"ok": surrogates.ok, "failures": surrogates.failures()},
        "congruences": report_congruences(alg),
        "center": report_center(alg),
        "spectrum": report_spectrum(alg),
        "reticulation": report_reticulation(alg),
        "cblp": report_cblp(alg),
    }


def _verify_one_path(caps: tuple[int, int], path: str) -> dict:
    """Worker for verify: self-contained so it can run in a subprocess, and
    failures in one input never mask the others.  A falsification is a
    failed check on it (exit 1); any other library error is that input's
    error (exit 2).

    The caps ``(cap_con, cap_matrix)`` are passed in and set around the
    checks: a pool worker started by ``spawn`` or ``forkserver`` has the
    default caps."""
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
        with _caps_set(caps):
            report = verify.verify_algebra(alg)
    except Falsified as exc:
        result["checks"] = [{"name": "falsified", "passed": False, "detail": str(exc)}]
        return result
    except CongruenceLabError as exc:
        result["input_error"] = str(exc)
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
        label = rep["labels"].get(i)
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
        flags = "".join(k for k in "1234" if r["thm63"][f"c{k}"])
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


def _caps(args) -> tuple[int, int]:
    """``(cap_con, cap_matrix)``: each flag, else ``CONGRUENCE_LAB_CAP``,
    else the default.  A given value, zero included, must be positive, and so
    must ``--jobs``."""
    env_cap = os.environ.get("CONGRUENCE_LAB_CAP")
    try:
        env_value = None if env_cap is None else int(env_cap)
    except ValueError:
        raise InputError(f"CONGRUENCE_LAB_CAP must be an integer, got {env_cap!r}")
    flags = ((args.cap_con, DEFAULT_CON_CAP), (args.cap_matrix, DEFAULT_MATRIX_CAP))
    caps = tuple(
        next(v for v in (flag, env_value, default) if v is not None) for flag, default in flags
    )
    if min(*caps, args.jobs) <= 0:
        raise InputError("caps and job counts must be positive")
    return caps


# every single-input command: its report builder, called with the loaded
# algebra and the parsed arguments, and its text printer (None prints JSON)
COMMANDS = {
    "congruences": (lambda alg, args: report_congruences(alg), _print_congruences),
    "commutator": (
        lambda alg, args: report_commutator(
            alg, _parse_blocks(alg, args.alpha), _parse_blocks(alg, args.beta)
        ),
        None,
    ),
    "spectrum": (lambda alg, args: report_spectrum(alg), _print_spectrum),
    "reticulation": (lambda alg, args: report_reticulation(alg), None),
    "center": (lambda alg, args: report_center(alg), None),
    "cblp": (
        lambda alg, args: report_cblp(
            alg, _parse_blocks(alg, args.theta) if args.theta else None
        ),
        _print_cblp,
    ),
    "report": (lambda alg, args: report_full(alg), None),
}


def run(args, caps: tuple[int, int]) -> int:
    """Run the parsed command with ``caps`` set in the current context for
    this call only."""
    with _caps_set(caps):
        if args.command == "verify":
            rep = report_verify(args.paths, args.jobs, caps)
            printer = _print_verify
        else:
            build, printer = COMMANDS[args.command]
            rep = build(_load(args.path), args)
        if args.json or printer is None:
            print(json.dumps(rep, indent=2))
        else:
            printer(rep)
    if args.command != "verify":
        return EXIT_OK
    if rep["input_errors"]:
        return EXIT_INPUT
    return EXIT_OK if rep["ok"] else EXIT_FALSIFIED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(args, _caps(args))
    except Falsified as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except (TheoryHypothesisFailed, HypothesisNotMet) as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except CongruenceLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
