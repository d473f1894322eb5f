"""The worker pool: results independent of the worker count under every
start method, a registered objective reaching workers that never
registered it, and no pool machinery imported until a pool is used."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pushopt
from pushopt.parallel import worker_pool

SRC = str(Path(pushopt.__file__).parents[1])

# The objective and its builder are module-level, so workers can import
# them by name; the registration runs only in the parent, inside __main__,
# as a library user's script would do it.
SCRIPT = textwrap.dedent(
    """
    import json
    import multiprocessing
    import sys

    import numpy as np

    from pushopt.analysis import reevaluate
    from pushopt.evolution import EvolutionConfig, evolve
    from pushopt.harness import RunConfig
    from pushopt.hybrid import Pool, PoolEntry
    from pushopt.problems import BenchmarkFunction, ProblemFamily, make_function, register_function
    from pushopt.push import parse_program, print_program


    def build(dim, seed, bounds=None):
        return BenchmarkFunction("SCRIPT-SPHERE", dim, -1.0, 1.0, np.full(dim, 0.25))


    def sphere(fn, x):
        z = x - fn.shift
        return float(z @ z)


    def evolve_result(jobs):
        config = EvolutionConfig(population_size=6, generations=2, repeats=2,
                                 run=RunConfig(swarm_size=2, moves=8, seed=3))
        result = evolve(config, ProblemFamily(make_function("SCRIPT-SPHERE", 2, 0)), jobs=jobs)
        return [print_program(result.best_program), repr(result.best_fitness),
                [repr(s.mean) for s in result.stats],
                [[print_program(p), repr(f)] for p, f in result.final_population]]


    def reevaluate_result(jobs):
        program = parse_program("(float.rand vector.wrand vector.best vector.between)")
        pool = Pool((PoolEntry(program, 0.0, "a"), PoolEntry(parse_program("(0.0 vector.wrand)"), 1.0, "b")))
        functions = [make_function(fid, 3, 1) for fid in ("SCRIPT-SPHERE", "F14")]
        report = reevaluate([("program", program), ("pool", pool)], functions,
                            RunConfig(swarm_size=2, moves=15, seed=4), runs=3, jobs=jobs)
        return [[[repr(v) for v in row] for row in runs] for runs in report.per_run]


    if __name__ == "__main__":
        register_function("SCRIPT-SPHERE", build, sphere)
        multiprocessing.set_start_method(sys.argv[1])
        print(json.dumps({f"{name}_jobs{jobs}": fn(jobs)
                          for name, fn in (("evolve", evolve_result), ("reevaluate", reevaluate_result))
                          for jobs in (1, 2)}))
    """
)


def _run_python(args, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_jobs_2_matches_jobs_1_under_each_start_method(tmp_path, method):
    script = tmp_path / "registered_objective.py"
    script.write_text(SCRIPT, encoding="utf-8")
    proc = _run_python([str(script), method], tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["evolve_jobs2"] == out["evolve_jobs1"]
    assert out["reevaluate_jobs2"] == out["reevaluate_jobs1"]


def test_importing_the_cli_loads_no_pool_machinery(tmp_path):
    code = (
        "import sys, pushopt.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    proc = _run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _scaled(shared, task):
    return shared * task


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_worker_pool_returns_results_in_task_order(jobs):
    with worker_pool(_scaled, 10, jobs) as run:
        assert run(list(range(13))) == [10 * t for t in range(13)]
        assert run([5]) == [50]



class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    the initializer and tasks in this process."""

    max_workers = []

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize):
        return map(fn, tasks)


def test_worker_pool_starts_no_more_workers_than_cpus(monkeypatch):
    import concurrent.futures

    from pushopt import parallel

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    # The stand-in installs the work in this process; undo that afterwards.
    monkeypatch.setattr(parallel, "_installed", None)
    monkeypatch.setattr(_RecordingExecutor, "max_workers", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with worker_pool(_scaled, 10, 10**6) as run:
        assert run([1, 2]) == [10, 20]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    with worker_pool(_scaled, 10, 10**6) as run:
        assert run([4]) == [40]
    with worker_pool(_scaled, 10, 2) as run:
        assert run([4]) == [40]
    assert _RecordingExecutor.max_workers == [3, 1, 1]
