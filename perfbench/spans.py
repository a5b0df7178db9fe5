"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps each named public function wherever a loaded
vandersolve module holds it (matched by object identity; methods are
wrapped on their class) and `restore` puts the originals back.  A name
that no longer resolves is reported as a span with zero calls.

Every call becomes one span (id, parent id, request id, name, start,
end, self time, extras).  Self time is the duration minus the time
covered by child spans; calls are single-threaded, so children nest and
never overlap.  Spans stay in memory until `write` is called.

tracemalloc slows allocation-heavy numpy code by about half, so only a
tracer made with `track_alloc=True` takes allocation peaks, and the
benchmark runs it in a pass of its own.
"""

import contextlib
import dataclasses
import functools
import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction

PACKAGE = "vandersolve"

# Spans whose returned exact values get a `.max_bits` metric.
BITS = (
    "symfuncs.compute_sigma",
    "symfuncs.deflate_all",
    "vandermonde.solve_square",
    "vandermonde.inverse",
    "kernel.kernel_basis",
    "kernel.solve_general",
    "kernel.solve_overdetermined",
)
# Float kernels: `.ops` from the OpCounter passed in, `.peak_alloc_mb`.
OPS = (
    "bench.sigma_floats",
    "bench.deflate_all_floats",
    "bench.solve_square_floats",
    "bench.gaussian_solve_floats",
)
PLAIN = (
    "cli.main",
    "field.parse_scalar",
    "oracle.gaussian_solve",
    "oracle.gaussian_rank",
    "oracle.sigma_bruteforce",
    "poly.Polynomial.evaluate",
    "vandermonde.DenseMatrix.mat_vec",
    "vandermonde.build_matrix",
)
TRACED = PLAIN + BITS + OPS
ORACLES = ("oracle.gaussian_solve", "oracle.gaussian_rank", "oracle.sigma_bruteforce")
SLOPES = ("bench.solve_square_floats", "bench.gaussian_solve_floats")
EXIT_CODES = range(5)
REFERENCE = "ref.lapack_solve"


def max_bits(value) -> int:
    """Largest numerator or denominator bit length among exact values."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, (tuple, list)):
        return max((max_bits(v) for v in value), default=0)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return max((max_bits(getattr(value, f.name)) for f in dataclasses.fields(value)),
                   default=0)
    return 0


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve(name: str):
    """(owner class or None, attribute, function) for a dotted span name."""
    module_name, *path = name.split(".")
    obj = sys.modules.get(f"{PACKAGE}.{module_name}")
    owner = None
    for attr in path:
        if obj is None:
            return None
        owner, obj = obj, getattr(obj, attr, None)
    if obj is None or (len(path) > 1 and path[-1] not in vars(owner)):
        return None
    return (owner if len(path) > 1 else None), path[-1], obj


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x); 0 without two sizes."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


class Tracer:
    """Wraps the traced functions and records one span per call."""

    def __init__(self, names=TRACED, track_alloc=False):
        self.names = tuple(names)
        self.track_alloc = track_alloc
        self.spans = []
        self.request_id = None
        self._stack = []  # open frames: [span_id, start, child_time, alloc_base, alloc_peak]
        self._next_id = 1
        self._patched = []  # (owner, attribute, original)
        self._alloc_owner = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name in self.names:
            found = _resolve(name)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if owner is not None:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- spans --------------------------------------------------------------

    def _open(self, track_alloc: bool) -> list:
        base = peak = None
        if track_alloc:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._alloc_owner = self._next_id
                base = peak = 0
            else:
                base = peak = self._fold_alloc()
        frame = [self._next_id, time.perf_counter(), 0.0, base, peak]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _fold_alloc(self) -> int:
        """Fold the traced peak into every open frame, then reset it."""
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._stack:
            if frame[4] is not None:
                frame[4] = max(frame[4], peak)
        tracemalloc.reset_peak()
        return current

    def _close(self, frame: list, end: float, name: str, extra: dict) -> None:
        span_id, start, child_time, base, _ = frame
        if base is not None:
            self._fold_alloc()
            extra["peak_alloc_mb"] = (frame[4] - base) / 2**20
            if self._alloc_owner == span_id:
                tracemalloc.stop()
                self._alloc_owner = None
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += end - start
        self.spans.append((span_id, parent[0] if parent else None, self.request_id,
                           name, start, end, end - start - child_time, extra))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._open(False)
        try:
            yield
        finally:
            self._close(frame, time.perf_counter(), name, {})

    def _wrap(self, name: str, fn):
        tracer = self
        counts_ops = name in OPS
        wants_bits = name in BITS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ops = kwargs.get("ops", args[-1] if args else None) if counts_ops else None
            if not hasattr(ops, "total"):
                ops = None
            before = ops.total if ops is not None else 0
            frame = tracer._open(counts_ops and tracer.track_alloc)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, time.perf_counter(), name, {"error": type(exc).__name__})
                raise
            end = time.perf_counter()
            extra = {}
            if ops is not None:
                extra["ops"] = ops.total - before
                extra["p"] = len(args[0]) if args and hasattr(args[0], "__len__") else 0
            if wants_bits:
                extra["max_bits"] = max_bits(result)
            if name == "cli.main":
                extra["exit"] = result
            tracer._close(frame, end, name, extra)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        by_name = {}
        for span in self.spans:
            by_name.setdefault(span[3], []).append(span)
        out = {}
        for name in self.names:
            group = by_name.get(name, [])
            out[f"{name}.calls"] = (len(group), "count")
            out[f"{name}.self_s"] = (sum(s[6] for s in group), "s")
            out[f"{name}.total_s"] = (sum(s[5] - s[4] for s in group), "s")
            if name in BITS:
                out[f"{name}.max_bits"] = (max((s[7].get("max_bits", 0) for s in group),
                                               default=0), "bits")
            if name in OPS:
                out[f"{name}.ops"] = (sum(s[7].get("ops", 0) for s in group), "count")
                if self.track_alloc:
                    out[f"{name}.peak_alloc_mb"] = (
                        max((s[7].get("peak_alloc_mb", 0.0) for s in group), default=0.0), "MB")
            if name in SLOPES:
                points = [(s[7]["p"], s[7]["ops"]) for s in group
                          if s[7].get("ops") and s[7].get("p")]
                out[f"{name}.ops_slope"] = (loglog_slope(points), "1")
        mains = by_name.get("cli.main", [])
        for code in EXIT_CODES:
            out[f"cli.main.exit.{code}"] = (sum(1 for s in mains if s[7].get("exit") == code),
                                            "count")
        main_total = sum(s[5] - s[4] for s in mains)
        oracle_self = sum(s[6] for name in ORACLES for s in by_name.get(name, []))
        out["oracle.share"] = (oracle_self / main_total if main_total else 0.0, "1")
        out[f"{REFERENCE}.self_s"] = (sum(s[6] for s in by_name.get(REFERENCE, [])), "s")
        return out

    def write(self, path) -> None:
        """One JSON object per span."""
        keys = ("id", "parent", "request", "name", "start", "end", "self_s", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

