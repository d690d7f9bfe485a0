"""The bntune benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of the repository:

    python3 bench/run.py --workload covid --seed 1 --seconds 55 --trace 0

Workloads: ``covid`` and ``layered-6x6``, which ``BENCHMARK.json`` lists, and
``chain30``, which it does not (see README.md here).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Each metric is printed as ``name = value unit``; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

The workload runs in a fresh child process (``measure.py``) with the BLAS
thread count pinned, so that peak RSS (the child's ``ru_maxrss``) is that
workload's alone.  The run
fails (non-zero exit, no result line) if the library cannot be found or the
child fails.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BLAS threads of the child.  One, not the two CPUs of the machine it was
#: tuned on: with two, layered-6x6's run-to-run spread of wall_s was about 10%,
#: with one about 5%.
BLAS_THREADS = "1"

#: Longest a child may run before it is killed and the run fails.
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "formats.parse_s": "s",
    "pmc.compile_s": "s",
    "pmc.states": "count",
    "pmc.transitions": "count",
    "pmc.reach_prob_s": "s",
    "pmc.reach_prob_calls": "count",
    "lifting.relax_s": "s",
    "lifting.substitute_s": "s",
    "lifting.substitute_calls": "count",
    "lifting.verify_calls": "count",
    "lifting.verify_s": "s",
    "lifting.verify_samples": "count",
    "lifting.verify_p50_ms": "ms",
    "lifting.verify_high_ms": "ms",
    "lifting.verify_high_pct": "%",
    "lifting.solve_self_s": "s",
    "lifting.mdp_actions": "count",
    "refine.self_s": "s",
    "refine.verifications": "count",
    "refine.accepting": "count",
    "refine.rejecting": "count",
    "refine.unknown": "count",
    "refine.conclusive_ratio": "ratio",
    "refine.unknown_volume": "volume",
    "tune.self_s": "s",
    "tune.iterations": "count",
    "tune.minimal_instantiation_s": "s",
    "trace.overhead_s": "s",
}


def commit() -> str:
    """The checked-out commit, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def option(argv: list[str], name: str) -> str | None:
    if name in argv and argv.index(name) + 1 < len(argv):
        return argv[argv.index(name) + 1]
    return None


def main(argv: list[str]) -> int:
    if not (SRC / "bntune" / "__init__.py").is_file():
        print(f"error: the bntune sources are not at {SRC}", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), *argv],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: the workload ran longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0 or not child.stdout.strip():
        sys.stderr.write(child.stdout)
        print(f"error: the workload exited with code {child.returncode}", file=sys.stderr)
        return child.returncode or 1
    report = json.loads(child.stdout.strip().splitlines()[-1])

    measured = report["metrics"]
    traced = option(argv, "--trace") == "1"
    units = PER_LAYER if traced else END_TO_END
    if set(measured) != set(units):
        print(f"error: measured {sorted(measured)}, expected {sorted(units)}", file=sys.stderr)
        return 4

    attempted, failed = report["attempted"], report["failed"]
    env_record = {
        "workload": option(argv, "--workload"),
        "seed": option(argv, "--seed"),
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        **report["info"],
    }
    print("env " + json.dumps(env_record))
    for reason in report["reasons"]:
        print(f"FAILED {reason}")
    for name, unit in units.items():
        print(f"{name} = {measured[name]!r} {unit}")
    print(f"failed_frac = {failed / attempted!r} share ({failed} of {attempted} requests)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
