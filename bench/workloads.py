"""The benchmark's three workloads: how each one builds its inputs from a
seed, the ``pushopt`` command line it runs, and the checks its result files
must pass.

Every workload is run the way a user runs it, through
``pushopt.cli.main(argv)`` with documented flags. The seed sets both
``seed`` and ``problem_seed`` of the command, so the program only ever sees
the generated inputs.

Run as a script, this module performs one set-up in a fresh interpreter
(import, input files, argv) and prints how long it took; ``run.py`` uses
that to measure ``setup_s``:

    python3 bench/workloads.py <workload> <seed> <work_dir>
"""

import time

_PROBE_START = time.perf_counter()

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# A frozen copy of the reference optimisers in tests/conftest.py
# (EVOLVED_OPTIMISERS), so that an edit to the test fixtures cannot silently
# change what the benchmark measures.
REFERENCE_PROGRAMS = {
    "F1": "(exec.dup float.- vector.- float.pop vector.zip vector.zip integer.swap"
    " float.cos float.- float.cos float.- float.yank vector.best vector.wrand"
    " float.abs float.dup float.frominteger vector.- vector.dim*)",
    "F9": "(input.stackdepth float.frominteger vector.yank vector.wrand boolean.dup"
    " integer.fromboolean vector.swap integer.rot float.frominteger float.sin"
    " vector.yank vector.shove vector.dim+ vector.yank 0.0 float.> input.inall"
    " boolean.not 1 boolean.dup vector.pop boolean.stackdepth)",
    "F12": "(vector.stackdepth vector.swap float.fromboolean integer.fromboolean"
    " integer.rand vector.dim+ float.+ vector.swap integer.rand 0 vector.swap"
    " integer.max integer.= vector.stackdepth integer.dup vector.- integer.dup"
    " integer.rand vector.- vector.dim+ vector.mag float.frominteger float.tan"
    " integer.rot vector.dim+)",
    "F13": "(integer.- float.sin vector.wrand integer.yankdup vector.dim* vector.-"
    " input.inall float.sin vector.-)",
    "F14": "(float.< float./ vector.best vector.yankdup float.ln float.max"
    " float.stackdepth 0.48999998 float.abs vector.between vector.wrand vector.scale"
    " integer.yank input.index vector.- float.rand float.neg 0.97999996 float.-"
    " 0.97999996 vector.wrand vector.scale vector.-)",
}

FUNCTIONS = ("F1", "F9", "F12", "F13", "F14")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _bad_error(text) -> bool:
    value = float(text)
    return not math.isfinite(value) or value < 0.0


class Workload:
    """One workload: its command line, its fixed member-move count, the
    files whose bytes make up its result digest, and the calls a traced run
    wraps on its path beyond those every workload takes (as owner,
    attribute, layer)."""

    name = ""
    result_files = ()
    member_moves = 0
    traced_calls = ()
    jobs = 1

    def argv(self, seed: int, in_dir: Path, out_dir: Path, jobs: int) -> list:
        raise NotImplementedError

    def setup(self, seed: int, work_dir: Path, jobs: int = None) -> list:
        """Write the input files for ``seed`` under ``work_dir`` and return
        the argv of the timed call, with ``jobs`` workers (the workload's
        own count by default); its output goes to ``work_dir/out``."""
        in_dir = work_dir / "in"
        in_dir.mkdir(parents=True, exist_ok=True)
        return self.argv(seed, in_dir, work_dir / "out", jobs or self.jobs)

    def digest(self, out_dir: Path) -> str:
        h = hashlib.sha256()
        for name in self.result_files:
            h.update(name.encode() + b"\0")
            h.update((out_dir / name).read_bytes())
        return h.hexdigest()

    def check_files(self, out_dir: Path) -> list:
        """Structural checks on the result files; returns the failures."""
        raise NotImplementedError

    def check_traced(self, out_dir: Path, capture) -> list:
        """Check the result files against the values captured at the
        wrapped calls of a traced run; returns the failures."""
        raise NotImplementedError


class EvolveF1D2(Workload):
    """Criterion-5 style evolve at desk scale: cost is Push dispatch on
    random genomes, the objective is cheap and there is no process pool.

    One generation of variation (not ten) keeps the work a mix of random
    genomes: in later generations the cost follows whichever genomes
    evolution favours, which varies more than twofold between seeds."""

    name = "evolve_f1_d2"
    result_files = ("best_program.txt", "generations.csv")
    pop = 100
    gens = 1
    moves = 200
    member_moves = pop * (gens + 1) * moves
    traced_calls = (
        ("pushopt.evolution", "evolve", "evolution"),
        ("pushopt.evolution", "fitness", "harness"),
        ("pushopt.harness", "run_with_source", "harness"),
    )

    def argv(self, seed, in_dir, out_dir, jobs):
        config = {
            "function": "F1",
            "D": 2,
            "pop": self.pop,
            "gens": self.gens,
            "repeats": 1,
            "swarm": 1,
            "moves": self.moves,
            "transforms": "random",
            "seed": seed,
            "problem_seed": seed,
        }
        path = in_dir / "evolve.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return ["evolve", "--config", str(path), "--jobs", str(jobs), "--out", str(out_dir)]

    def check_files(self, out_dir):
        failures = []
        if not (out_dir / "best_program.txt").read_text(encoding="utf-8").startswith("("):
            failures.append("best_program.txt does not hold a program")
        rows = _read_csv(out_dir / "generations.csv")[1:]
        if len(rows) != self.gens + 1:
            failures.append(f"generations.csv has {len(rows)} rows, expected {self.gens + 1}")
        running = math.inf
        for row in rows:
            if any(_bad_error(v) for v in row[1:]):
                failures.append(f"generation {row[0]}: non-finite or negative fitness")
            running = min(running, float(row[1]))
            if float(row[4]) != running:
                failures.append(f"generation {row[0]}: best_so_far is not the running minimum")
        return failures

    def check_traced(self, out_dir, capture):
        failures = []
        fits = capture.fitness
        runs = capture.runs
        if len(fits) != self.pop * (self.gens + 1) or len(runs) != len(fits):
            return [f"traced {len(fits)} fitness calls over {len(runs)} runs, "
                    f"expected {self.pop * (self.gens + 1)} of each"]
        for fit, (_, _, result) in zip(fits, runs):
            if fit != result.pbest:
                failures.append(f"fitness {fit!r} is not its run's best error {result.pbest!r}")
        rows = _read_csv(out_dir / "generations.csv")[1:]
        for g, row in enumerate(rows):
            best = min(fits[g * self.pop : (g + 1) * self.pop])
            if row[1] != repr(float(best)):
                failures.append(f"generation {g}: reported best {row[1]} != traced {best!r}")
        return failures


class ReevalD10(Workload):
    """``analyze reevaluate`` of the five reference programs on all five
    functions at D=10: the only workload that uses the process pool."""

    name = "reeval_d10_jobs2"
    result_files = ("per_run.csv", "errors.csv")
    runs = 2
    moves = 1000
    jobs = 2
    member_moves = len(REFERENCE_PROGRAMS) * len(FUNCTIONS) * runs * moves
    traced_calls = (
        ("pushopt.analysis", "reevaluate", "analysis"),
        ("pushopt.harness", "run_with_source", "harness"),
    )

    def argv(self, seed, in_dir, out_dir, jobs):
        programs = []
        for fid, text in REFERENCE_PROGRAMS.items():
            path = in_dir / f"ref_{fid}.txt"
            path.write_text(text + "\n", encoding="utf-8")
            programs.append(str(path))
        return [
            "analyze", "reevaluate", "--programs", *programs,
            "--functions", *FUNCTIONS, "--dim", "10", "--runs", str(self.runs),
            "--swarm", "1", "--moves", str(self.moves),
            "--seed", str(seed), "--problem-seed", str(seed),
            "--jobs", str(jobs), "--out", str(out_dir),
        ]

    def _per_run(self, out_dir):
        return _read_csv(out_dir / "per_run.csv")[1:]

    def check_files(self, out_dir):
        failures = []
        rows = self._per_run(out_dir)
        expected = len(REFERENCE_PROGRAMS) * len(FUNCTIONS) * self.runs
        if len(rows) != expected:
            return [f"per_run.csv has {len(rows)} rows, expected {expected}"]
        failures += [f"per_run {r[:3]}: non-finite or negative error" for r in rows if _bad_error(r[3])]
        bests = {}
        for name, fid, _, value in rows:
            bests.setdefault((name, fid), []).append(float(value))
        table = _read_csv(out_dir / "errors.csv")
        if len(table) != len(REFERENCE_PROGRAMS) + 1:
            failures.append(f"errors.csv has {len(table) - 1} optimiser rows")
        for row in table[1:]:
            for fid, mean in zip(table[0][2:], row[2:]):
                if fid in FUNCTIONS and mean != repr(sum(bests[(row[0], fid)]) / self.runs):
                    failures.append(f"errors.csv {row[0]}/{fid}: mean disagrees with per_run.csv")
        return failures

    def check_traced(self, out_dir, capture):
        runs = capture.runs
        rows = self._per_run(out_dir)
        if len(runs) != len(rows):
            return [f"traced {len(runs)} runs, per_run.csv has {len(rows)}"]
        return [
            f"per_run {row[:3]}: reported {row[3]} != traced {result.pbest!r}"
            for row, (_, _, result) in zip(rows, runs)
            if row[3] != repr(float(result.pbest))
        ]


class HybridF14D50(Workload):
    """``hybrid --pool`` over the five reference programs, per-move
    selection, swarm 10 on transformed F14 at D=50."""

    name = "hybrid_f14_d50"
    result_files = ("results.csv",)
    swarm = 10
    moves = 1000
    repeats = 2
    member_moves = swarm * moves * repeats
    traced_calls = (
        ("pushopt.cli", "repeated_runs", "harness"),
        ("pushopt.hybrid", "run_hybrid", "hybrid"),
        ("pushopt.hybrid", "run_with_source", "harness"),
        ("pushopt.hybrid.PoolSource", "select", "hybrid"),
    )

    def argv(self, seed, in_dir, out_dir, jobs):
        pool = {"programs": [{"program": text, "source": fid} for fid, text in REFERENCE_PROGRAMS.items()]}
        path = in_dir / "pool.json"
        path.write_text(json.dumps(pool), encoding="utf-8")
        return [
            "hybrid", "--pool", str(path), "--mode", "per_move",
            "--function", "F14", "--dim", "50", "--transforms", "random",
            "--swarm", str(self.swarm), "--moves", str(self.moves),
            "--repeats", str(self.repeats),
            "--seed", str(seed), "--problem-seed", str(seed), "--out", str(out_dir),
        ]

    def check_files(self, out_dir):
        failures = []
        rows = _read_csv(out_dir / "results.csv")[1:]
        if len(rows) != self.repeats + 1:
            return [f"results.csv has {len(rows)} rows, expected {self.repeats + 1}"]
        for repeat, pbest, evaluations, moves in rows[:-1]:
            if _bad_error(pbest):
                failures.append(f"repeat {repeat}: non-finite or negative error")
            if not self.swarm <= int(evaluations) <= self.swarm * (self.moves + 1):
                failures.append(f"repeat {repeat}: {evaluations} evaluations outside [s, s*(M+1)]")
            if int(moves) != self.moves:
                failures.append(f"repeat {repeat}: {moves} moves executed")
        if rows[-1][1] != repr(sum(float(r[1]) for r in rows[:-1]) / self.repeats):
            failures.append("results.csv mean disagrees with its rows")
        return failures

    def check_traced(self, out_dir, capture):
        runs = capture.runs
        rows = _read_csv(out_dir / "results.csv")[1:-1]
        if len(runs) != len(rows):
            return [f"traced {len(runs)} runs, results.csv has {len(rows)}"]
        return [
            f"repeat {row[0]}: reported {row[1:3]} != traced {result.pbest!r}, {result.evaluations_used}"
            for row, (_, _, result) in zip(rows, runs)
            if row[1] != repr(float(result.pbest)) or int(row[2]) != result.evaluations_used
        ]


WORKLOADS = {w.name: w for w in (EvolveF1D2(), ReevalD10(), HybridF14D50())}


if __name__ == "__main__":
    # One cold set-up: import the package, write the inputs, build the argv.
    import pushopt.cli  # noqa: F401

    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(time.perf_counter() - _PROBE_START))
