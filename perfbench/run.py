"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  Each workload runs in a fresh
interpreter (worker.py) that imports this tree's src/, with BLAS pinned
to one thread.  Set-up time is taken SETUPS times, in fresh processes,
and reported as the median.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the two lines before
it record the environment and the share of each request property.  The
same data, and the traced run's spans, are written under perfbench/out/.

Exits with code 2, printing no result, when the tree has no src/vandersolve.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 5
RUN_LIMIT_S = 175
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


def git_sha() -> str:
    """HEAD of the tree when it is a git checkout, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": PINNED["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def spawn(args, extra: list, deadline: float) -> dict:
    """One fresh worker process; its last stdout line as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED)
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - t0, 1))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vandersolve", "__init__.py")):
        print(f"error: no src/vandersolve under {ROOT}; run from a source tree",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(spawn(args, ["--setup-only"], deadline)["setup_s"])
        result = spawn(args, ["--spans", stem + ".spans.jsonl"] if args.trace else [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    final = {"correct": result["failed"] == 0, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    env = environment(args)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "setups_s": setups, "shares": result["shares"], **final},
                  fh, indent=1)
    print("environment " + json.dumps(env))
    print("shares " + json.dumps(result["shares"]))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
