"""One workload pass in a fresh interpreter, so every cache starts cold.

Usage: ``python3 perfbench/worker.py SPEC.json`` with ``src`` on PYTHONPATH.
The spec names the mode (``verify`` or ``query``), the inputs and whether to
trace.  The last line of standard output is a JSON object with the answers,
the instant every input was parsed (``time.monotonic``, which is system-wide
on Linux so the parent can subtract its spawn time), peak RSS and, when
traced, the spans.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, redirect_stdout  # noqa: E402


class Tracer:
    """Spans kept in memory: name, start, end, parent index and run id."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, start: float | None = None):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.monotonic() if start is None else start,
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.monotonic()


def _verify_untraced(docs: list[dict]) -> list[dict]:
    from congruence_lab.cli import main
    from congruence_lab.congruences import con_lattice

    answers = []
    for doc in docs:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = main(["--json", "--jobs", "1", "verify", doc["path"]])
        except Exception as exc:  # one failing input must not hide the others
            answers.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        latency = time.perf_counter() - start
        result = json.loads(buf.getvalue())["results"][0]
        answers.append(
            {
                "exit": code,
                "latency_s": latency,
                "elapsed": result["elapsed"],
                "ok": result["ok"],
                "exploratory": result["exploratory"],
                "checks": len(result["checks"]),
                "failed_checks": [c["name"] for c in result["checks"] if not c["passed"]],
                # a cache hit: verify already built this lattice
                "con_size": len(con_lattice(doc["algebra"])),
            }
        )
    return answers


def _verify_staged(docs: list[dict], tracer: Tracer) -> tuple[list[dict], dict, list]:
    """The verify pipeline stage by stage, each stage in its own span.

    The order makes every span hold only work no earlier stage cached.
    """
    from congruence_lab.commutator import commutator_index, surrogate_checks
    from congruence_lab.congruences import con_lattice
    from congruence_lab.lifting import boolean_center_of_congruences, has_cblp
    from congruence_lab.reticulation import build_reticulation
    from congruence_lab.spectrum import spectrum
    from congruence_lab.verify import BASIC_SUITES, SUITES

    counts = dict.fromkeys(
        [
            "congruences.con_size",
            "congruences.ji_count",
            "commutator.pairs",
            "commutator.pair_elems",
            "reticulation.size",
            "lifting.cblp_true",
            "verify.checks",
        ],
        0,
    )
    answers = []
    retics = []
    for doc in docs:
        alg = doc["algebra"]
        start = time.perf_counter()
        try:
            with tracer.span("document"):
                with tracer.span("congruences.con"):
                    lattice = con_lattice(alg)
                size = len(lattice)
                with tracer.span("commutator.table"):
                    for i in range(size):
                        for j in range(i, size):
                            commutator_index(lattice, i, j)
                with tracer.span("commutator.surrogates"):
                    exploratory = not surrogate_checks(alg).ok
                retic = None
                if not exploratory:
                    with tracer.span("spectrum.spectrum"):
                        spectrum(alg)
                    with tracer.span("reticulation.build"):
                        retic = build_reticulation(alg)
                    with tracer.span("lifting.center"):
                        boolean_center_of_congruences(alg)
                    with tracer.span("lifting.cblp_all"):
                        verdicts = [has_cblp(alg, theta).cblp for theta in lattice.congruences]
                checks = []
                for label, suite in SUITES:
                    if exploratory and label not in BASIC_SUITES:
                        continue
                    with tracer.span(f"verify.suite.{label}"):
                        checks.extend(suite(alg))
        except Exception as exc:  # one failing input must not hide the others
            answers.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        latency = time.perf_counter() - start
        pair_counts = [sum(len(c) ** 2 for c in theta.classes()) for theta in lattice.congruences]
        counts["congruences.con_size"] += size
        counts["congruences.ji_count"] += len(lattice.join_irreducible_indices())
        counts["commutator.pairs"] += size * (size + 1) // 2
        counts["commutator.pair_elems"] += sum(
            pair_counts[i] + pair_counts[j] for i in range(size) for j in range(i, size)
        )
        if retic is not None:
            counts["reticulation.size"] += retic.lattice.size
            counts["lifting.cblp_true"] += sum(verdicts)
            retics.append((retic, lattice))
        # verify_algebra appends one surrogate-status check per input
        counts["verify.checks"] += len(checks) + 1
        answers.append(
            {
                "exit": 0,
                "latency_s": latency,
                "ok": all(c.passed for c in checks),
                "exploratory": exploratory,
                "checks": len(checks) + 1,
                "failed_checks": [c.name for c in checks if not c.passed],
                "con_size": size,
            }
        )
    return answers, counts, retics


def _lattice_probe(retics, tracer: Tracer) -> None:
    """The ideal calls the reticulation and lifting suites make."""
    from congruence_lab.lattices import quotient_by_ideal
    from congruence_lab.reticulation import ideal_spectra, star

    with tracer.span("lattices.ideals"):
        for retic, lattice in retics:
            ideal_spectra(retic.lattice)
            for theta in lattice.congruences:
                quotient_by_ideal(star(retic, theta))


def _queries(algebras, queries: list[dict], tracer: Tracer) -> tuple[list[dict], dict]:
    from congruence_lab.commutator import commutator, surrogate_checks
    from congruence_lab.congruences import con_lattice, congruence_from_blocks
    from congruence_lab.lifting import has_cblp

    counts = dict.fromkeys(
        [
            "congruences.con_size",
            "congruences.ji_count",
            "commutator.pairs",
            "commutator.pair_elems",
            "lifting.cblp_true",
        ],
        0,
    )
    answers = []
    for alg, query in zip(algebras, queries):
        start = time.perf_counter()
        try:
            with tracer.span("query"):
                if query["kind"] == "commutator":
                    with tracer.span("congruences.con"):
                        if tracer.enabled:
                            con_lattice(alg)
                        alpha = congruence_from_blocks(alg, query["alpha"])
                        beta = congruence_from_blocks(alg, query["beta"])
                    with tracer.span("commutator.query"):
                        answer = list(commutator(alg, alpha, beta).blocks)
                else:
                    with tracer.span("congruences.con"):
                        if tracer.enabled:
                            con_lattice(alg)
                        theta = congruence_from_blocks(alg, query["theta"])
                    if tracer.enabled:
                        with tracer.span("commutator.surrogates"):
                            surrogate_checks(alg)
                    with tracer.span("lifting.cblp_query"):
                        answer = has_cblp(alg, theta).cblp
        except Exception as exc:  # a refused or failed query is a failed answer
            answers.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        answers.append({"latency_s": time.perf_counter() - start, "answer": answer})
        lattice = con_lattice(alg)
        counts["congruences.con_size"] += len(lattice)
        counts["congruences.ji_count"] += len(lattice.join_irreducible_indices())
        if query["kind"] == "commutator":
            counts["commutator.pairs"] += 1
            counts["commutator.pair_elems"] += sum(
                len(c) ** 2 for theta in (alpha, beta) for c in theta.classes()
            )
        else:
            counts["lifting.cblp_true"] += answer
    return answers, counts


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer(spec["run_id"], spec["trace"])
    with tracer.span("run", start=T_START):
        with tracer.span("setup.import"):
            import congruence_lab  # noqa: F401
            from congruence_lab.algebra import load_algebra, parse_algebra
        with tracer.span("algebra.load"):
            if spec["mode"] == "verify":
                for doc in spec["docs"]:
                    with open(doc["path"], encoding="utf-8") as fh:
                        doc["algebra"] = load_algebra(fh.read())
            else:
                algebras = [parse_algebra(q["doc"]) for q in spec["queries"]]
        ready = time.monotonic()
        if spec.get("setup_only"):
            print(json.dumps({"ready": ready}))
            return
        counts: dict = {}
        retics = []
        if spec["mode"] == "query":
            answers, counts = _queries(algebras, spec["queries"], tracer)
        elif spec["trace"]:
            answers, counts, retics = _verify_staged(spec["docs"], tracer)
        else:
            answers = _verify_untraced(spec["docs"])
    end = time.monotonic()
    if retics:
        _lattice_probe(retics, tracer)
    print(
        json.dumps(
            {
                "ready": ready,
                "end": end,
                "answers": answers,
                "counts": counts,
                "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "spans": tracer.spans,
            }
        )
    )


if __name__ == "__main__":
    main()
