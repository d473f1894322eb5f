"""Per-layer timing from outside the package.

Each traced call into a module's public function is replaced, for the
duration of one run, by a wrapper that times it with ``perf_counter``. The
wrapper is installed where the caller looks the name up (for example
``pushopt.harness.run_move`` for ``step_swarm``), so the package itself is
not changed. A span's self time is its duration minus the durations of the
traced calls made inside it; a layer's self time is the sum over its spans.
Spans are aggregated as they close rather than kept, so a traced run's
memory does not grow with its length.
"""

import importlib
import statistics
import time
from contextlib import contextmanager

from workloads import FUNCTIONS

LAYERS = ("cli", "evolution", "analysis", "hybrid", "harness", "push", "problems")

# (owner, attribute, layer) of the calls traced on every workload. The owner
# is a module or class path; the span is named after its last module and
# the attribute.
COMMON_CALLS = (
    ("pushopt.cli", "main", "cli"),
    ("pushopt.harness", "step_swarm", "harness"),
    ("pushopt.harness", "run_move", "push"),
    ("pushopt.problems.Problem", "evaluate", "problems"),
    ("pushopt.problems.Problem", "map_point", "problems"),
    ("pushopt.problems.BenchmarkFunction", "evaluate", "problems"),
)


class TraceError(RuntimeError):
    pass


def _resolve(owner_path: str):
    parts = owner_path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                raise TraceError(f"cannot trace {owner_path}: {part} is missing")
        return obj
    raise TraceError(f"cannot trace {owner_path}: module not found")


class Capture:
    """Counters and values read at the traced calls.

    ``runs`` and ``fitness`` hold the current run's optimisation runs and
    fitness values, in call order, for the correctness gate; the caller
    clears them between runs. Everything else accumulates.
    """

    def __init__(self):
        self.runs = []
        self.fitness = []
        self.run_seconds = []
        self.in_bounds_evals = 0
        self.items = 0
        self.limit_hits = 0
        self.vector_depth_max = 0
        self.evals_by_function = {}

    def on_run(self, args, result, elapsed):
        problem, config = args[1], args[2]
        self.runs.append((problem, config, result))
        self.run_seconds.append(elapsed)
        self.in_bounds_evals += result.evaluations_used - config.swarm_size

    def on_fitness(self, args, result, elapsed):
        self.fitness.append(result)

    def on_move(self, args, result, elapsed):
        state = args[0]
        self.items += state.steps_used
        # run_move stops with items left on the exec stack only when the
        # execution limit cut the program short.
        self.limit_hits += bool(state.exec)
        depth = len(state.vectors)
        if depth > self.vector_depth_max:
            self.vector_depth_max = depth

    def on_evaluate(self, args, result, elapsed):
        entry = self.evals_by_function.setdefault(args[0].function.id, [0, 0.0])
        entry[0] += 1
        entry[1] += elapsed

    def hook_for(self, span: str):
        return {
            "harness.run_with_source": self.on_run,
            "hybrid.run_with_source": self.on_run,
            "evolution.fitness": self.on_fitness,
            "harness.run_move": self.on_move,
            "problems.Problem.evaluate": self.on_evaluate,
        }.get(span)


class Tracer:
    """Installs timing wrappers and aggregates their spans per name."""

    def __init__(self, calls, capture: Capture):
        self.calls = tuple(calls)
        self.capture = capture
        self.stats = {}  # span name -> [calls, total seconds, self seconds]
        self.layer_of = {}

    @staticmethod
    def span_name(owner_path: str, attr: str) -> str:
        parts = owner_path.split(".")[1:]
        return ".".join(parts + [attr])

    @contextmanager
    def installed(self):
        """Wrap every traced call for the duration of the block; the
        originals are restored on exit, even after an error."""
        stack = [0.0]
        patched = []
        try:
            for owner_path, attr, layer in self.calls:
                owner = _resolve(owner_path)
                original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if original is None:
                    raise TraceError(f"cannot trace {owner_path}.{attr}: it is missing")
                name = self.span_name(owner_path, attr)
                self.layer_of[name] = layer
                stat = self.stats.setdefault(name, [0, 0.0, 0.0])
                wrapper = _wrapper(original, stat, stack, self.capture.hook_for(name))
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def require_called(self) -> None:
        missing = [name for name, stat in self.stats.items() if stat[0] == 0]
        if missing:
            raise TraceError(f"traced call(s) never reached: {', '.join(missing)}")

    def count(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def per_call(self, name: str, scale: float) -> float:
        stat = self.stats.get(name)
        return stat[1] / stat[0] * scale if stat and stat[0] else 0.0

    def layer_self(self) -> dict:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            totals[self.layer_of[name]] += stat[2]
        return totals


def _wrapper(original, stat, stack, hook):
    clock = time.perf_counter

    def traced(*args, **kwargs):
        stack.append(0.0)
        start = clock()
        try:
            result = original(*args, **kwargs)
        finally:
            elapsed = clock() - start
            children = stack.pop()
            stack[-1] += elapsed
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - children
        if hook is not None:
            hook(args, result, elapsed)
        return result

    return traced


def tail(samples):
    """(percentile, value) of the highest order statistic with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def layer_metrics(tracer: Tracer, capture: Capture, traced_wall: float, calls: int,
                  overhead_frac: float, speedup_jobs2: float) -> dict:
    """The per-layer metrics of ``calls`` traced calls that took
    ``traced_wall`` seconds in all, keyed by metric name."""
    layer = tracer.layer_self()
    moves = tracer.count("harness.run_move")
    run_ms = [s * 1e3 for s in capture.run_seconds]
    metrics = {
        "push.moves": (moves, "count"),
        "push.items": (capture.items, "count"),
        "push.ns_per_item": (tracer.stats["harness.run_move"][1] / capture.items * 1e9, "ns"),
        "push.us_per_move": (tracer.per_call("harness.run_move", 1e6), "us"),
        "push.limit_hit_frac": (capture.limit_hits / moves, "fraction"),
        "push.vector_depth_max": (capture.vector_depth_max, "count"),
        "push.share": (layer["push"] / traced_wall, "fraction"),
        "problems.evals": (tracer.count("problems.Problem.evaluate"), "count"),
        "problems.us_per_eval": (tracer.per_call("problems.Problem.evaluate", 1e6), "us"),
        "problems.transform_us": (tracer.per_call("problems.Problem.map_point", 1e6), "us"),
        "problems.function_us": (tracer.per_call("problems.BenchmarkFunction.evaluate", 1e6), "us"),
        "problems.share": (layer["problems"] / traced_wall, "fraction"),
        "harness.self_us_per_member_move": (layer["harness"] / moves * 1e6, "us"),
        "harness.in_bounds_frac": (capture.in_bounds_evals / moves, "fraction"),
        "harness.run_ms_p50": (statistics.median(run_ms), "ms"),
        "harness.run_ms_tail": ((tail(run_ms) or (None, max(run_ms)))[1], "ms"),
        "harness.share": (layer["harness"] / traced_wall, "fraction"),
        "evolution.fitness_calls": (tracer.count("evolution.fitness"), "count"),
        "evolution.self_s": (layer["evolution"] / calls, "s"),
        "hybrid.selects": (tracer.count("hybrid.PoolSource.select"), "count"),
        "hybrid.select_us": (tracer.per_call("hybrid.PoolSource.select", 1e6), "us"),
        "analysis.speedup_jobs2": (speedup_jobs2, "x"),
        "analysis.self_s": (layer["analysis"] / calls, "s"),
        "cli.self_s": (layer["cli"] / calls, "s"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
        "unattributed_s": ((traced_wall - sum(layer.values())) / calls, "s"),
    }
    for fid in FUNCTIONS:
        calls, seconds = capture.evals_by_function.get(fid, (0, 0.0))
        metrics[f"problems.us_per_eval.{fid}"] = (seconds / calls * 1e6 if calls else 0.0, "us")
    return metrics
