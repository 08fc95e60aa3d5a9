"""Per-suite seconds and check counts of ``verify`` on the workload ladder.

Usage, from the root of a source checkout::

    python tools/ladder.py [NAME ...] [--json PATH]

NAME is one of C_9, C_10, C_11, B_4, Z_30 and Z_2xZ_9; the default is all
but C_11, whose measurement takes several minutes.
For each algebra the script starts fresh interpreters, so nothing stored by
one measurement is reused by the next:

* one per ``verify.SUITES`` entry: it builds Con(A) and the hypothesis
  surrogates (``setup_s``), then times that suite alone (``alone_s``) and
  counts its checks;
* one that runs ``verify_algebra``'s steps in order: Con(A) (``con_s``),
  the surrogates (``surrogates_s``), then each suite (``in_sequence_s``),
  each reusing what the earlier ones stored.  Its ``setup_s`` is
  ``con_s + surrogates_s``, and the sum of all steps is ``verify_s``, the
  time of one ``verify_algebra`` call.  ``delta_closures`` is the number
  of Delta_{gamma,beta} closures that Con(A) has stored by then, the work
  count of the commutator layer, and ``pair_members`` the number of members
  of the pair algebras A(beta) they ran on, which weighs them by size (a
  closure on A(nabla) = A x A reads n**2 members, one on a small A(beta)
  few); ``stored_results`` is the number of entries in the result stores
  of every lattice the run reached, each counted once: Con(A), L(A) where
  it is a lattice of its own, and the Con(A/theta) of each stored
  projection.  It grows with what the suites keep.  ``max_rss_mib``
  is its peak resident set size from ``resource.getrusage``; Linux
  carries the peak across fork and exec, so the RSS of the ladder process
  itself, which has imported the package, is its floor.  Before any step
  it imports the package (``import_s``): the start-up cost that every
  fresh process pays, counted in none of the other times.  The sources are
  byte-compiled before the first measurement and the children run without
  ``PYTHONDONTWRITEBYTECODE``, so ``import_s`` counts no compilation.

Suites that ``verify_algebra`` skips on an exploratory algebra are not run.
The table goes to standard output; ``--json PATH`` also writes the numbers,
with the checkout's ``git rev-parse --short HEAD`` as ``commit`` and whether
its tracked files have uncommitted changes as ``dirty`` (both null where git
cannot tell).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

LADDER = ("C_9", "C_10", "B_4", "Z_30", "Z_2xZ_9")


def build(name: str):
    from congruence_lab.algebra import product
    from congruence_lab.builders import boolean_lattice, chain_lattice, ring_zn

    builders = {
        "C_9": lambda: chain_lattice(9),
        "C_10": lambda: chain_lattice(10),
        "C_11": lambda: chain_lattice(11),
        "B_4": lambda: boolean_lattice(4),
        "Z_30": lambda: ring_zn(30),
        "Z_2xZ_9": lambda: product(ring_zn(2), ring_zn(9)),
    }
    if name not in builders:
        raise SystemExit(f"unknown ladder algebra {name!r}; choose from {', '.join(builders)}")
    return builders[name]()


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def child(name: str, label: str) -> dict:
    """Run in a fresh interpreter: one suite alone, or (label "-") every
    step of ``verify_algebra`` in order."""
    # the package imports every module, so this is the whole library import
    _, import_s = _timed(lambda: __import__("congruence_lab"))
    from congruence_lab.commutator import surrogate_checks
    from congruence_lab.congruences import con_lattice
    from congruence_lab.verify import BASIC_SUITES, SUITES

    alg = build(name)
    lattice, con_s = _timed(lambda: con_lattice(alg))
    surrogate, surrogate_s = _timed(lambda: surrogate_checks(alg))
    out = {
        "import_s": import_s,
        "con_size": len(lattice),
        "con_s": con_s,
        "surrogates_s": surrogate_s,
        "setup_s": con_s + surrogate_s,
        "suites": {},
    }
    for suite_label, suite in SUITES:
        if label not in ("-", suite_label):
            continue
        if not surrogate.ok and suite_label not in BASIC_SUITES:
            continue
        checks, seconds = _timed(lambda: list(suite(alg)))
        out["suites"][suite_label] = {"seconds": seconds, "checks": len(checks)}
    caches = lattice._caches
    out["delta_closures"] = len(caches.get("congruence_lab.commutator._close_delta", {}))
    universes = caches.get("congruence_lab.commutator._pair_algebra", {}).values()
    out["pair_members"] = sum(len(firsts) for firsts, *_ in universes)
    # each lattice once, by identity: L(A) is Con(A) where rho is the
    # identity, and quotient algebras that compare equal share one Con
    reached = {id(lattice): lattice}
    for _, retic, _ in caches.get("congruence_lab.reticulation.reticulation_index", {}).values():
        reached[id(retic)] = retic
    for p in caches.get("congruence_lab.congruences.projection", {}).values():
        reached[id(p.lattice)] = p.lattice
    out["stored_results"] = sum(len(s) for lat in reached.values() for s in lat._caches.values())
    out["max_rss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return out


def tree() -> dict:
    """The commit of the checkout and whether its tracked files differ from
    it; null for both when git is missing or the checkout is no repository."""

    def git(*args) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip()

    try:
        commit = git("rev-parse", "--short", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": dirty}


def measure(name: str) -> dict:
    from congruence_lab.verify import SUITES

    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

    def run(label: str) -> dict:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", name, label],
            check=True,
            capture_output=True,
            text=True,
            env=env,
        )
        return json.loads(proc.stdout)

    sequence = run("-")
    suites = {}
    for label, _ in SUITES:
        if label not in sequence["suites"]:
            continue
        alone = run(label)
        suites[label] = {
            "checks": alone["suites"][label]["checks"],
            "setup_s": round(alone["setup_s"], 3),
            "alone_s": round(alone["suites"][label]["seconds"], 3),
            "in_sequence_s": round(sequence["suites"][label]["seconds"], 3),
        }
    total = sequence["setup_s"] + sum(s["seconds"] for s in sequence["suites"].values())
    return {
        "import_s": round(sequence["import_s"], 3),
        "con_size": sequence["con_size"],
        "con_s": round(sequence["con_s"], 3),
        "surrogates_s": round(sequence["surrogates_s"], 3),
        "setup_s": round(sequence["setup_s"], 3),
        "verify_s": round(total, 3),
        "delta_closures": sequence["delta_closures"],
        "pair_members": sequence["pair_members"],
        "stored_results": sequence["stored_results"],
        "max_rss_mib": sequence["max_rss_mib"],
        "suites": suites,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", default=list(LADDER))
    parser.add_argument("--json", type=Path, help="also write the numbers here")
    parser.add_argument("--child", nargs=2, metavar=("NAME", "SUITE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(*args.child)))
        return 0
    for name in args.names:
        build(name)  # reject unknown names before any measurement
    compileall.compile_dir(ROOT / "src", quiet=1)
    checkout = tree()  # the tree as it was when the measurements started
    results = {}
    for name in args.names:
        record = results[name] = measure(name)
        print(
            f"{name}: |Con| = {record['con_size']}, import {record['import_s']:.3f} s, "
            f"setup {record['setup_s']:.2f} s "
            f"(Con(A) {record['con_s']:.2f} s, surrogates {record['surrogates_s']:.2f} s), "
            f"verify {record['verify_s']:.2f} s, {record['delta_closures']} Delta closures "
            f"on {record['pair_members']} pair members, "
            f"{record['stored_results']} stored results, max RSS {record['max_rss_mib']} MiB"
        )
        print(f"  {'suite':<14}{'checks':>7}{'alone s':>10}{'in sequence s':>15}")
        for label, row in record["suites"].items():
            print(
                f"  {label:<14}{row['checks']:>7}{row['alone_s']:>10.2f}"
                f"{row['in_sequence_s']:>15.2f}"
            )
    if args.json:
        args.json.write_text(
            json.dumps(
                {"python": platform.python_version(), **checkout, "algebras": results},
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
