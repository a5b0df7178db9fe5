"""Check that the working tree's CLI answers a fixed corpus byte for byte as a git ref does.

    python tools/cli_identity.py --base REF

REF is exported with `git archive` into a temporary directory.  One
fixed corpus of CLI requests then runs through REF's
`vandersolve.cli.main` and through the working tree's, each tree in a
process of its own, one tree after the other.  Each case compares the
exit code, stdout, stderr and the file written by `--out`.  The first
differing case is printed in full, every further one as its index and
name, then a summary line; the exit code is 1 on any difference, 0
when there is none, and 2 when REF cannot be exported or a tree cannot
run the corpus.

The corpus:
- every request of the first two cli-small blocks for seeds 1, 2 and 3,
  generated by `perfbench/workloads.py` (only read: this script never
  writes under perfbench/), each to stdout and to `--out`, as generated
  and with `--float`, `--pretty` or `--verify` added;
- edge cases: n <= 0, tall consistent and inconsistent solves, results
  past 4300 digits, a `--float` overflow, refused sizes, a large `kernel`
  written to a file, `sigma --deflated --verify` up to p = 60, literals
  with `_` digit groups or inner spaces, one-column CSV files whose
  first row is a malformed number or a header, repeated nodes spelled
  two ways, given by `--nodes`, in a CSV file and in a JSON file, a JSON
  file with an empty node list, and an empty `--out` path.
`bench` timings vary from run to run, so only its refusals are run.
"""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
BLOCKS = 2
OUT = "{out}"  # stands for the output file in a case's argv
FIELDS = ("exit code", "stdout", "stderr", "--out file")


def _cli_small(workdir: str) -> list:
    """(name, argv) for every cli-small request of the fixed blocks, in each variant."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    # CliSmall imports the working tree's `vandersolve.cli` when it is made
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    import workloads

    cases = []
    for seed in SEEDS:
        seed_dir = os.path.join(workdir, f"seed-{seed}")
        os.makedirs(seed_dir)
        workload = workloads.CliSmall(None, seed, seed_dir)  # writes the input files
        for k in range(BLOCKS):
            for req in workload.block(k):
                call = list(req.call)
                at = call.index("--out")
                del call[at:at + 2]
                variants = [call] + [call + [flag] for flag in ("--float", "--pretty", "--verify")
                                     if flag not in call]
                name = f"cli-small seed {seed} request {req.rid} ({req.op})"
                cases += _both_targets(name, variants)
    return cases


def _both_targets(name: str, variants) -> list:
    return [(" ".join([name, *(a for a in argv[1:] if a.startswith("--") and "=" not in a),
                       "->", target]), argv + extra)
            for argv in variants
            for target, extra in (("stdout", []), ("file", ["--out", OUT]))]


def _edge_cases(workdir: str) -> list:
    rng = random.Random(16)

    def rationals(p):
        nodes = set()
        while len(nodes) < p:
            nodes.add(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
        return ",".join(map(str, sorted(nodes)))

    tall = [Fraction(1, 2), Fraction(-3), Fraction(5, 7), Fraction(2), Fraction(9)]
    fit = [a * a - a / 2 + Fraction(1, 4) for a in tall]
    big = ",".join(str(10**200 + k) for k in range(30))  # sigma(30) has about 6000 digits
    cases = [
        ("solve n = 0", ["solve", "--nodes=1,2", "--values=1,2", "--n=0"]),
        ("solve n < 0", ["solve", "--nodes=1,2", "--values=1,2", "--n=-3", "--verify"]),
        ("kernel n = 0", ["kernel", "--nodes=1,2", "--n=0"]),
        ("kernel n < 0", ["kernel", "--nodes=1,2", "--n=-1", "--verify"]),
        ("kernel n < p", ["kernel", "--nodes=1,2,3", "--n=2"]),
        ("tall consistent", ["solve", "--nodes=0,1,2,3", "--values=1,2,3,4", "--n=2",
                             "--verify"]),
        ("tall consistent rational", ["solve", f"--nodes={','.join(map(str, tall))}", "--n=3",
                                      f"--values={','.join(map(str, fit))}", "--verify",
                                      "--pretty"]),
        ("tall inconsistent", ["solve", "--nodes=0,1,2,3", "--values=1,2,4,8", "--n=2",
                               "--verify"]),
        ("tall inconsistent last row", ["solve", "--nodes=0,1,2,3,4", "--n=1",
                                        "--values=7,7,7,7,8", "--verify"]),
        ("sigma past 4300 digits", ["sigma", f"--nodes={big}", "--verify"]),
        ("interpolate past 4300 digits", ["interpolate", "--nodes=0,1,2",
                                          f"--values=1,{'9' * 4300},2", "--verify"]),
        ("solve past 4300 digits", ["solve", "--nodes=1,2", f"--values={'7' * 4300},1",
                                    "--n=4", "--verify"]),
        ("float overflow", ["sigma", "--nodes=1e200,2e200", "--float"]),
        ("float overflow interpolate", ["interpolate", "--nodes=0,1e-200",
                                        "--values=0,1e200", "--float"]),
        ("sigma --deflated refused", ["sigma", f"--nodes={','.join(map(str, range(3163)))}",
                                      "--deflated"]),
        ("kernel refused", ["kernel", "--nodes=1", "--n=100000"]),
        ("bench size refused", ["bench", "--sizes=100000"]),
        ("bench reps refused", ["bench", "--sizes=4", "--reps=100000"]),
        ("bad literal", ["interpolate", "--nodes=1,2/0", "--values=1,2"]),
        ("duplicate node", ["sigma", "--nodes=1,2,2/1"]),
        ("duplicate node 2, 4/2", ["sigma", "--nodes=2,4/2"]),
        ("duplicate node 1/2, 0.5", ["sigma", "--nodes=1/2,0.5"]),
        ("duplicate node 0, -0", ["sigma", "--nodes=0,-0"]),
        ("duplicate node 3, 6/2 before 1, 1", ["sigma", "--nodes=3,1,6/2,1"]),
        ("digit groups", ["interpolate", "--nodes=1_000,2", "--values=1,2"]),
        ("inner spaces", ["sigma", "--nodes=1 / 2,3"]),
    ]
    for i, first in enumerate(("1/0", "1e99999", "x", "1_000", "1 / 2")):
        path = os.path.join(workdir, f"first-row-{i}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{first}\n2\n3\n")
        cases.append((f"csv first row {first}", ["sigma", "--csv", path]))
    for kind, text, argv in (
            ("csv", "node,value\n1/3,1\n2,2\n2/6,3\n", ["interpolate"]),
            ("json", '{"nodes": [1.5, "3/2", 2], "values": [1, 2, 3]}', ["solve", "--n=2"])):
        path = os.path.join(workdir, f"duplicate.{kind}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        cases.append((f"duplicate node in a {kind} file", [*argv, f"--{kind}", path]))
    path = os.path.join(workdir, "no-nodes.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"nodes": [], "values": []}')
    cases.append(("no nodes in a json file", ["interpolate", "--json", path]))
    cases = [case for name, argv in cases for case in _both_targets(name, [argv])]
    cases.append(("empty --out path", ["interpolate", "--nodes=0,1", "--values=1,2", "--out", ""]))
    cases.append(("large kernel -> file", ["kernel", "--nodes=1,-2,3/2", "--n=1000",
                                           "--out", OUT]))
    cases.append(("large kernel --verify -> file", ["kernel", "--nodes=1/3,5", "--n=800",
                                                    "--verify", "--out", OUT]))
    for p in (10, 20, 30, 40, 50, 60):
        cases += _both_targets(f"sigma deflated p = {p}",
                               [["sigma", f"--nodes={rationals(p)}", "--deflated", "--verify"]])
    return cases


def _run_tree(src: str, cases_path: str, results_path: str, out: str) -> None:
    """Run every case through the `cli.main` under src and write the results as JSON."""
    sys.path.insert(0, src)
    from vandersolve import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the package under {src}")
    with open(cases_path, encoding="utf-8") as fh:
        cases = json.load(fh)
    results = []
    for _, argv in cases:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main([out if a == OUT else a for a in argv])
            except (Exception, SystemExit) as exc:  # a traceback is a difference too
                code = f"raised {type(exc).__name__}: {exc}"
        written = None
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                written = fh.read()
            os.remove(out)
        results.append([code, stdout.getvalue(), stderr.getvalue(), written])
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def _shown(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else f"{text[:200]}... ({len(text)} characters)"


def _report(i: int, case, base, work, ref: str) -> None:
    name, argv = case
    print(f"first difference: case {i}, {name}")
    print("  argv: " + " ".join(a if len(a) <= 80 else a[:80] + "..." for a in argv))
    for field, a, b in zip(FIELDS, base, work):
        if a != b:
            print(f"  {field} at {ref}: {_shown(a)}")
            print(f"  {field} in the working tree: {_shown(b)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the git ref to compare the working tree with")
    parser.add_argument("--worker", nargs=4, metavar=("SRC", "CASES", "RESULTS", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _run_tree(*args.worker)
        return 0
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        base_dir = os.path.join(tmp, "base")
        os.mkdir(base_dir)
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", args.base],
                                 capture_output=True)
        if archive.returncode:
            print(f"cannot export {args.base}: {archive.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", base_dir], input=archive.stdout, check=True)
        cases = _cli_small(os.path.join(tmp, "corpus")) + _edge_cases(tmp)
        cases_path = os.path.join(tmp, "cases.json")
        with open(cases_path, "w", encoding="utf-8") as fh:
            json.dump(cases, fh)
        results = []
        for tree in (base_dir, ROOT):
            results_path = os.path.join(tmp, "results.json")
            worker = subprocess.run([sys.executable, os.path.abspath(__file__), "--base",
                                     args.base, "--worker", os.path.join(tree, "src"),
                                     cases_path, results_path, os.path.join(tmp, "out.txt")])
            if worker.returncode:
                print(f"cannot run the corpus on {tree}: exit {worker.returncode}",
                      file=sys.stderr)
                return 2
            with open(results_path, encoding="utf-8") as fh:
                results.append(json.load(fh))
    differing = [i for i, (a, b) in enumerate(zip(*results)) if a != b]
    if differing:
        i = differing[0]
        _report(i, cases[i], results[0][i], results[1][i], args.base)
        for i in differing[1:]:
            print(f"also differs: case {i}, {cases[i][0]}")
    print(f"cli_identity: {len(cases)} cases, {len(differing)} differ "
          f"({args.base} against the working tree)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
