"""Layered benchmark for congruence-lab.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each pass runs in a fresh single-threaded interpreter, so the
``con_lattice`` cache starts cold; one client, closed loop):

* ``corpus-verify``: ``congruence-lab --json --jobs 1 verify`` on each of the
  20 ``corpus/*.json`` files, in an order the seed permutes.  Many small
  congruence lattices; the verify suites and lattice layers dominate.
* ``closure-ladder``: the same command on B_4, Z_24 and Z_2 x Z_9, built by
  ``builders`` and written as documents.  Few congruences but pair algebras
  of up to 576 elements; the full commutator table dominates.
* ``point-query``: cold single ``commutator`` and ``has_cblp`` queries, each
  on a seeded relabelling of a base algebra, so no query hits a cache.

``--trace 0`` runs ``S`` seconds' worth of passes (a fixed count per
workload, so every commit does the same work) and prints the end-to-end
metrics; ``point-query`` also prints its per-query ``query_p50_ms`` and
``query_p90_ms``, and every run prints ``failed_share``.  ``--trace 1``
runs one untraced pass, then one pass that calls each layer's public
functions in pipeline order inside spans, and prints the per-layer metrics.  Every answer is checked against a closed
form or a pinned count (see ``inputs.py``).  The last line of standard
output is the result object; a fuller record, with run metadata, machine
calibration, per-input times and spans, goes to
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
sys.pycache_prefix = str(BUILD / "pycache")

import inputs  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # not used while the benchmark was tuned
WORKLOADS = ("corpus-verify", "closure-ladder", "point-query")
# Nominal seconds of one pass on a 2-core 2 GHz VM.  The pass count is
# seconds // nominal, so a run does the same work on every commit.
PASS_SECONDS = {"corpus-verify": 16, "closure-ladder": 18, "point-query": 10}
DEADLINE_S = 170
SETUP_REPEATS = 5
CALIBRATION_LOOP = 3_000_000

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SUITE_LABELS = (
    "algebra", "congruences", "commutator", "radical", "spectrum",
    "reticulation", "center", "lifting", "orthogonal", "oracle",
)
SPAN_METRICS = (
    "algebra.load", "congruences.con", "commutator.table", "commutator.query",
    "commutator.surrogates", "spectrum.spectrum", "reticulation.build",
    "lifting.center", "lifting.cblp_all", "lifting.cblp_query", "lattices.ideals",
) + tuple(f"verify.suite.{label}" for label in SUITE_LABELS)
COUNT_METRICS = (
    "congruences.con_size", "congruences.ji_count", "commutator.pairs",
    "commutator.pair_elems", "reticulation.size", "lifting.cblp_true",
    "verify.checks",
)
# Spans that only group other spans; coverage counts the leaves.
GROUP_SPANS = {"run", "document", "query"}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; recorded, never used to rescale."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i
    return time.perf_counter() - start


def metadata() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "congruence_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "node": platform.node(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(spec: dict, name: str, deadline: float) -> dict:
    """Run one worker pass; returns its result with wall and setup times."""
    spec_path = BUILD / "specs" / f"{name}.json"
    spec_path.parent.mkdir(parents=True, exist_ok=True)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    worker = Path(__file__).resolve().parent / "worker.py"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(worker), str(spec_path)],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - start),
    )
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"worker pass {name} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["setup_s"] = result["ready"] - start
    return result


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def verify_problem(doc: dict, answer: dict) -> str | None:
    """Why a verify answer is wrong, or None when it is right."""
    if "error" in answer:
        return answer["error"]
    if answer["exit"] != 0 or not answer["ok"]:
        return f"exit {answer['exit']}, failed checks {answer['failed_checks']}"
    if answer["exploratory"] != doc["exploratory"]:
        return f"exploratory is {answer['exploratory']}"
    if doc["checks"] is not None and answer["checks"] != doc["checks"]:
        return f"{answer['checks']} checks, expected {doc['checks']}"
    if doc["con_size"] is not None and answer["con_size"] != doc["con_size"]:
        return f"|Con| = {answer['con_size']}, expected {doc['con_size']}"
    return None


def make_passes(workload: str, seed: int, passes: int, run_id: str) -> list[tuple[dict, list]]:
    """Per pass, the worker's spec (inputs only) and the expected answers."""
    if workload == "point-query":
        keys = ("kind", "doc", "alpha", "beta", "theta")
        return [
            ({"mode": "query", "run_id": run_id, "trace": False,
              "queries": [{k: q[k] for k in keys if k in q} for q in queries]}, queries)
            for queries in inputs.point_queries(seed, passes)
        ]
    if workload == "corpus-verify":
        docs = inputs.corpus_documents(ROOT, seed)
    else:
        docs = inputs.ladder_documents(BUILD / "inputs" / f"seed{seed}", seed)
    spec = {"mode": "verify", "run_id": run_id, "trace": False,
            "docs": [{"path": doc["path"]} for doc in docs]}
    return [(spec, docs)] * passes


def grade(expected: list, result: dict) -> list[dict]:
    """Per-answer records with a correctness flag."""
    rows = []
    for want, answer in zip(expected, result["answers"], strict=True):
        if "kind" in want:
            problem = answer.get("error")
            if problem is None and not inputs.check_answer(want, answer["answer"]):
                problem = f"{answer['answer']} on the copy, {want['expected']} expected on the base"
            row = {"input": f"{want['base']}:{want['kind']}"}
        else:
            problem = verify_problem(want, answer)
            row = {"input": want["label"], "elapsed": answer.get("elapsed")}
        row.update(latency_s=answer.get("latency_s"), correct=problem is None, problem=problem)
        rows.append(row)
    return rows


def layer_metrics(result: dict, untraced_wall: float) -> dict:
    spans = result["spans"]
    children = {s["parent"] for s in spans}
    totals = dict.fromkeys(SPAN_METRICS, 0.0)
    for s in spans:
        if s["name"] in totals:
            totals[s["name"]] += s["end"] - s["start"]
    metrics = {f"{name}_s": (value, "s") for name, value in totals.items()}
    for name in COUNT_METRICS:
        metrics[name] = (result["counts"].get(name, 0), "count")
    # coverage of the traced workload (the root span) by leaf spans
    root = next(s for s in spans if s["name"] == "run")
    leaves = sorted(
        (s["start"], s["end"]) for i, s in enumerate(spans)
        if i not in children and s["name"] not in GROUP_SPANS
        and s["start"] >= root["start"] and s["end"] <= root["end"]
    )
    covered, reach = 0.0, root["start"]
    for start, end in leaves:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    total = root["end"] - root["start"]
    # the lattice probe runs after the workload and is not part of it
    traced_wall = result["wall_s"] - totals["lattices.ideals"]
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.uncovered_share"] = (1.0 - covered / total, "share")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "congruence_lab" / "__init__.py").is_file() or not (
        ROOT / "corpus"
    ).is_dir():
        print(f"error: no congruence-lab source tree (src/, corpus/) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    deadline = time.monotonic() + DEADLINE_S
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    calibration_before = calibrate()

    passes = 1 if args.trace else max(1, args.seconds // PASS_SECONDS[args.workload])
    plan = make_passes(args.workload, args.seed, passes, run_id)
    # Set-up alone (interpreter start, import, parsing every input), repeated;
    # the first spawn also fills the bytecode cache and is not counted.
    setups = [
        spawn(dict(plan[0][0], setup_only=True), f"{run_id}-setup{k}", deadline)["setup_s"]
        for k in range(1 + (0 if args.trace else SETUP_REPEATS))
    ][1:]
    results = [spawn(spec, f"{run_id}-pass{k}", deadline) for k, (spec, _) in enumerate(plan)]
    rows = [row for (_, want), res in zip(plan, results) for row in grade(want, res)]
    # Printed and recorded, not gated: on the 2-vCPU VM the benchmark was
    # tuned on, their spread over ten seeds reached 0.25 and 0.35.
    latency = None
    if args.workload == "point-query":
        # a failed query misses any latency limit
        latencies_ms = [
            math.inf if row["latency_s"] is None else row["latency_s"] * 1000 for row in rows
        ]
        p90 = percentile(latencies_ms, 0.9)
        latency = {
            "query_p50_ms": statistics.median(latencies_ms),
            "query_p90_ms": p90,
            "samples": len(latencies_ms),
            "beyond_p90": sum(v > p90 for v in latencies_ms),
        }
    traced = None
    if args.trace:
        spec, want = plan[0]
        traced = spawn(dict(spec, trace=True), f"{run_id}-traced", deadline)
        rows += grade(want, traced)
    calibration_after = calibrate()

    attempted = len(rows)
    failed = sum(not row["correct"] for row in rows)
    end_to_end = {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in results]),
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] / 1024 for r in results),
    }
    if traced is None:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
    else:
        metrics = layer_metrics(traced, results[0]["wall_s"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "metadata": metadata(),
        "calibration_s": {"loop_iterations": CALIBRATION_LOOP,
                          "before": calibration_before, "after": calibration_after},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "end_to_end_untraced": end_to_end,
        "failed_share": failed / attempted,
        "query_latency": latency,
        "setup_only_s": setups,
        "passes_raw": [{k: r[k] for k in ("wall_s", "setup_s", "peak_rss_kib")} for r in results],
        "answers": rows,
    }
    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if traced is not None:
        (out_dir / f"{run_id}-spans.json").write_text(json.dumps(traced["spans"]), encoding="utf-8")

    meta = record["metadata"]
    print(f"{run_id}: {passes} pass(es), python {meta['python']}, nproc {meta['nproc']}, "
          f"commit {meta['commit']}, source {meta['source_sha256'][:12]}")
    print(f"calibration loop: {calibration_before:.4f} s before, {calibration_after:.4f} s after")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_share = {failed}/{attempted} = {failed / attempted:.6g} share")
    if latency is not None:
        print(f"  query_p50_ms = {latency['query_p50_ms']:.6g} ms"
              f" ({latency['samples']} queries)")
        print(f"  query_p90_ms = {latency['query_p90_ms']:.6g} ms"
              f" ({latency['beyond_p90']} of {latency['samples']} beyond)")
    else:
        for row in rows[: len(results[0]["answers"])]:
            print(f"  input {row['input']}: {row['latency_s']} s"
                  f" (verify elapsed {row['elapsed']})")
    for row in rows:
        if not row["correct"]:
            print(f"  WRONG {row['input']}: {row['problem']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
