"""Correctness gate for traced runs: every optimisation run's reported best
error is recomputed with the loop-based reference formulas in
``tests/reference_functions.py``, at the run's best point mapped through the
instance transform with this module's own arithmetic."""

import importlib.util
import math
from pathlib import Path

# Relative tolerance between the package's vectorised objectives and the
# reference loops; the same bound the oracle acceptance test uses.
REL_TOL = 1e-9


def load_reference(root: Path):
    """Import ``tests/reference_functions.py`` of the checkout at ``root``."""
    path = root / "tests" / "reference_functions.py"
    spec = importlib.util.spec_from_file_location("bench_reference_functions", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_error


def _to_function_space(problem, point):
    t = problem.transform
    if all(f == 1.0 for f in t.flip) and all(s == 1.0 for s in t.scale) and not any(t.translation):
        return [float(x) for x in point]
    fn = problem.function
    centre = (fn.lower + fn.upper) / 2.0
    return [
        float(f) * float(s) * (float(x) - centre) + centre + float(tr)
        for x, f, s, tr in zip(point, t.flip, t.scale, t.translation)
    ]


def check_run(reference_error, problem, config, result) -> list:
    """Failures of one run: its budget, its best error and its best point."""
    failures = []
    s, m = config.swarm_size, config.moves
    if not s <= result.evaluations_used <= s * (m + 1):
        failures.append(f"{result.evaluations_used} evaluations outside [{s}, {s * (m + 1)}]")
    if not math.isfinite(result.pbest) or result.pbest < 0.0:
        failures.append(f"pbest {result.pbest!r} is not finite and >= 0")
        return failures
    lower, upper = problem.bounds
    point = [float(x) for x in result.pbest_point]
    if len(point) != problem.dim or not all(lower <= x <= upper for x in point):
        failures.append("best point is not an in-bounds point of the problem")
        return failures
    want = reference_error(problem.function, _to_function_space(problem, point))
    if abs(result.pbest - want) > REL_TOL * max(1.0, abs(want)):
        failures.append(f"{problem.function.id}: pbest {result.pbest!r} != reference {float(want)!r}")
    return failures
