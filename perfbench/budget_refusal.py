"""Informational datapoint, not part of any workload: how `congruence-lab
commutator` refuses Z_64 with alpha = beta = nabla on the matrix budget.

Usage, from the root of a source checkout::

    python3 perfbench/budget_refusal.py

Prints one JSON object with the exit status, the wall time and the error
line, and stores it in ``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from run import BUILD, ROOT, metadata, worker_env

N = 64


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from congruence_lab.algebra import dump_algebra
    from congruence_lab.builders import ring_zn

    doc = BUILD / "inputs" / f"Z_{N}.json"
    doc.parent.mkdir(parents=True, exist_ok=True)
    doc.write_text(dump_algebra(ring_zn(N)), encoding="utf-8")
    nabla = json.dumps([0] * N)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "congruence_lab.cli", "commutator", str(doc), nabla, nabla],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=170,
    )
    record = {
        "command": f"congruence-lab commutator Z_{N}.json nabla nabla",
        "exit": proc.returncode,
        "wall_s": time.monotonic() - start,
        "stderr": proc.stderr.strip().splitlines()[-1:] or None,
        "metadata": metadata(),
    }
    out = BUILD / "results" / "budget_refusal.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
