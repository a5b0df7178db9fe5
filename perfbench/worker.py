"""One benchmark process: set up a workload, run it, report as JSON.

Started by run.py in a fresh interpreter that imports the working tree's
src/.  Prints one JSON object as its last line of stdout.

Untraced (--trace 0): requests run in whole blocks until --seconds of
request time have passed.  Traced (--trace 1): a fixed number of blocks
runs once untraced and once traced, so counts, ops and bits repeat
exactly for a seed and the difference in request time is the tracing
overhead; when float kernels ran, one more block runs with allocation
tracking for the `.peak_alloc_mb` metrics.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

import certify
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUEST_TIMEOUT_S = 60
RUN_LIMIT_S = 150  # from process start; stops mid-block so a run always ends in time


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout(f"request exceeded {REQUEST_TIMEOUT_S} s")


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.errors = []
        self.tags = {}

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)


def run_request(workload, req, stats: Stats, tracer=None) -> None:
    """Time one request, then check its output outside the timed region."""
    stats.attempted += 1
    for tag in req.tags:
        stats.tags[tag] = stats.tags.get(tag, 0) + 1
    error = None
    signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.execute(req)
        else:
            tracer.request_id = req.rid
            with tracer.span("request"):
                out = workload.execute(req)
    except Exception as exc:  # any exception is a failed request, reported below
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    stats.latencies.append(elapsed)
    if error is None:
        if tracer is not None:
            workload.reference(req, tracer)
        try:
            workload.check(req, out)
        except certify.Mismatch as exc:
            error = str(exc)
        except Exception as exc:  # an output too malformed to check also fails
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    workload.finish(req)
    if error is not None:
        stats.failed += 1
        stats.errors.append(f"request {req.rid} ({req.op}, p={req.p}): {error}")


def run_blocks(workload, stats: Stats, seconds=None, blocks=None, tracer=None,
               first=None, deadline=float("inf")) -> None:
    """Whole blocks until `seconds` of request time or `blocks` blocks;
    `first` is block 0 when set-up already generated it.  Past the
    monotonic `deadline` no further request starts."""
    k = 0
    while blocks is None or k < blocks:
        for req in first if k == 0 and first is not None else workload.block(k):
            if time.monotonic() > deadline:
                return
            run_request(workload, req, stats, tracer)
        k += 1
        if seconds is not None and stats.timed_s >= seconds:
            return


def traced(tracer, workload, stats: Stats, blocks: int, deadline: float) -> None:
    tracer.install()
    try:
        run_blocks(workload, stats, blocks=blocks, tracer=tracer, deadline=deadline)
    finally:
        tracer.restore()


def end_to_end(stats: Stats) -> dict:
    lat = sorted(stats.latencies)
    return {
        "latency_s.p50": (statistics.median(lat), "s"),
        "latency_s.p90": (statistics.quantiles(lat, n=10, method="inclusive")[-1], "s"),
        "req_per_s": ((stats.attempted - stats.failed) / stats.timed_s, "1/s"),
        "success_ratio": (1 - stats.failed / stats.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def import_library():
    """vandersolve from this tree's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import vandersolve

    if os.path.dirname(os.path.dirname(os.path.abspath(vandersolve.__file__))) != src:
        raise ImportError(f"vandersolve imported from {vandersolve.__file__}, not {src}")
    return vandersolve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args(argv)

    lib = import_library()
    signal.signal(signal.SIGALRM, _on_alarm)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        workload = workloads.WORKLOADS[args.workload](lib, args.seed, workdir)
        first = workload.block(0)
        workload.warm_up()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        stats = Stats()
        deadline = args.t0 + RUN_LIMIT_S
        if not args.trace:
            run_blocks(workload, stats, seconds=args.seconds, first=first, deadline=deadline)
            metrics = end_to_end(stats)
        else:
            run_blocks(workload, stats, blocks=workload.trace_blocks, first=first,
                       deadline=deadline)
            untraced_s = stats.timed_s
            tracer = spans.Tracer()
            traced(tracer, workload, stats, workload.trace_blocks, deadline)
            metrics = tracer.metrics()
            metrics["trace.overhead_s"] = (stats.timed_s - 2 * untraced_s, "s")
            alloc = spans.Tracer(track_alloc=True)
            if any(metrics[f"{name}.calls"][0] for name in spans.OPS):
                traced(alloc, workload, stats, 1, deadline)
            metrics.update((k, v) for k, v in alloc.metrics().items()
                           if k.endswith("peak_alloc_mb"))
            if args.spans:
                tracer.write(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in stats.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    shares = {tag: count / stats.attempted for tag, count in sorted(stats.tags.items())}
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "shares": shares,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
