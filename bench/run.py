"""The pushopt benchmark: three command-line workloads timed end to end, and
a traced run that splits the time over the package's modules.

    python3 bench/run.py --workload evolve_f1_d2 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Load shape: one client in a closed loop. Each repetition sets up its inputs,
calls ``pushopt.cli.main(argv)`` and checks the result files before the next
one starts; nothing runs in the background. Repetition ``i`` of ``--seed n``
runs the command with seed (and problem seed) ``1000 n + i``, so a run
averages over many generated instances, and the same seed gives the same
inputs.

``--trace 0`` times untraced calls and reports the end-to-end metrics.
``--trace 1`` pairs each untraced call with a traced call on the same inputs
and reports the per-layer metrics; ``reeval_d10_jobs2`` is traced at
``--jobs 1``, because wrappers in this process cannot see calls made in the
workers. Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Any failed check makes the exit code 1; a checkout without the
package makes it 2.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracer
from workloads import ROOT, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 7
MIN_REPS = 3


class CheckFailed(Exception):
    pass


def command_seed(seed: int, rep: int) -> int:
    return 1000 * seed + rep


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def run_once(workload, seed: int, work_dir: Path, jobs: int = None):
    """Set up one repetition, time its ``cli.main`` call and return
    (wall seconds, output directory)."""
    import pushopt.cli

    shutil.rmtree(work_dir, ignore_errors=True)
    argv = workload.setup(seed, work_dir, jobs)
    start = time.perf_counter()
    code = pushopt.cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise CheckFailed(f"pushopt {' '.join(argv[:2])} exited with code {code}")
    return wall, work_dir / "out"


def checked(failures) -> None:
    if failures:
        raise CheckFailed("; ".join(failures[:5]) + (f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""))


class Tally:
    """Repetitions attempted and failed; a failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: this process plus its largest waited-for
    # child, which for reeval_d10_jobs2 is a pool worker.
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def setup_seconds(workload, seed: int, work: Path) -> list:
    """Cold set-ups, each in a fresh interpreter: import, input files, argv."""
    times = []
    for k in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), workload.name,
             str(command_seed(seed, k)), str(work / f"setup{k}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout.split()[-1]))
    return times


def timing(samples, unit: str) -> str:
    text = f"median {statistics.median(samples):.6g} {unit}"
    tail = tracer.tail(samples)
    text += f", p{tail[0]:.0f} {tail[1]:.6g} {unit}" if tail else ", no tail percentile (n<11)"
    return text + f" (n={len(samples)})"


class Verifier:
    """Traced calls at one job. Each must reproduce the digest of an
    untraced call on the same inputs, make the workload's fixed number of
    member-moves, agree with the values seen at the traced calls, and pass
    the oracle on every optimisation run."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = oracle.load_reference(ROOT)
        self.capture = tracer.Capture()
        self.tracer = tracer.Tracer(tracer.COMMON_CALLS + workload.traced_calls, self.capture)

    def call(self, seed: int, digest: str, work_dir: Path) -> float:
        workload, capture, tr = self.workload, self.capture, self.tracer
        capture.runs.clear()
        capture.fitness.clear()
        moves_before = tr.count("harness.run_move")
        with tr.installed():
            wall, out = run_once(workload, seed, work_dir, jobs=1)
        tr.require_called()
        if workload.digest(out) != digest:
            raise CheckFailed(f"seed {seed}: the traced call at --jobs 1 and the untraced call differ")
        moves = tr.count("harness.run_move") - moves_before
        failures = [] if moves == workload.member_moves else [f"{moves} member-moves, expected {workload.member_moves}"]
        failures += workload.check_files(out) + workload.check_traced(out, capture)
        for problem, config, result in capture.runs:
            failures += oracle.check_run(self.reference, problem, config, result)
        checked(failures)
        return wall


def measure_end_to_end(workload, seed: int, seconds: int, work: Path, tally: Tally):
    """Untraced calls for about ``seconds``, each on new inputs, then one
    untimed traced call on the first inputs to verify them."""
    verifier = Verifier(workload)
    walls, digests = [], []

    def repetition(rep: int):
        wall, out = run_once(workload, command_seed(seed, rep), work / "call")
        checked(workload.check_files(out))
        digests.append(workload.digest(out))
        walls.append(wall)
        return True

    started = time.perf_counter()
    # Leave time for the verifying call, which runs at one job and traced.
    while len(walls) < MIN_REPS or time.perf_counter() - started + 3 * statistics.median(walls) <= seconds:
        if tally.attempt(repetition, len(walls)) is None:
            break
    rss = peak_rss_mb()
    if not tally.failed:
        tally.attempt(verifier.call, command_seed(seed, 0), digests[0], work / "call")
    for rep, digest in enumerate(digests):
        print(f"digest seed={command_seed(seed, rep)} {digest}")
    print(f"failed_frac: {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} calls)")
    if tally.failed:
        return {}
    setups = setup_seconds(workload, seed, work)
    moves_per_s = [workload.member_moves / w for w in walls]
    print(f"setup_s: {timing(setups, 's')}")
    print(f"wall_s: {timing(walls, 's')}")
    print("wall_s per call: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"member_moves_per_s: {timing(moves_per_s, '1/s')} at {workload.member_moves} member-moves per call")
    print(f"peak_rss_mb: {rss:.6g} MB")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "member_moves_per_s": (statistics.median(moves_per_s), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def measure_layers(workload, seed: int, seconds: int, work: Path, tally: Tally):
    """Per input: an untraced call at the workload's job count, for a
    pooled workload another at one job, then a verified traced call."""
    verifier = Verifier(workload)
    untraced, untraced_one_job, traced = [], [], []
    pooled = workload.jobs > 1

    def repetition(rep: int):
        seed_i = command_seed(seed, rep)
        wall, out = run_once(workload, seed_i, work / "call")
        checked(workload.check_files(out))
        digest = workload.digest(out)
        wall_one = wall
        if pooled:
            wall_one, out = run_once(workload, seed_i, work / "call", jobs=1)
            if workload.digest(out) != digest:
                raise CheckFailed(f"seed {seed_i}: --jobs 1 and --jobs {workload.jobs} results differ")
        traced.append(verifier.call(seed_i, digest, work / "call"))
        untraced.append(wall)
        untraced_one_job.append(wall_one)
        print(f"digest seed={seed_i} {digest}")
        return True

    started = time.perf_counter()
    while True:
        if tally.attempt(repetition, len(traced)) is None:
            return {}
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(traced) > seconds:
            break
    tr, capture = verifier.tracer, verifier.capture
    overhead = statistics.median(t / u for t, u in zip(traced, untraced_one_job)) - 1.0
    speedup = statistics.median(u1 / u for u1, u in zip(untraced_one_job, untraced)) if pooled else 0.0
    metrics = tracer.layer_metrics(tr, capture, sum(traced), len(traced), overhead, speedup)
    layers = tr.layer_self()
    split = ", ".join(f"{name} {layers[name] / sum(traced):.1%}" for name in tracer.LAYERS)
    print(f"layer split of {len(traced)} traced calls ({sum(traced):.3f} s): {split}, "
          f"unattributed {metrics['unattributed_s'][0] * len(traced) / sum(traced):.2%}")
    run_tail = tracer.tail(capture.run_seconds)
    print(f"harness.run_ms_tail is p{run_tail[0]:.0f} of {len(capture.run_seconds)} runs" if run_tail
          else f"harness.run_ms_tail is the maximum of {len(capture.run_seconds)} runs")
    print(f"untraced wall_s: {timing(untraced, 's')}; traced at one job: {timing(traced, 's')}")
    return metrics


def run_workload(args) -> int:
    try:
        import pushopt.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the pushopt package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    work = WORK_ROOT / str(os.getpid())
    tally = Tally()
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then one table."""
    rows, worst = {}, 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines() or [""]
        worst = max(worst, proc.returncode)
        try:
            rows[name] = json.loads(lines[-1])
            lines.pop()
        except json.JSONDecodeError:
            rows[name] = None
        print("\n".join(lines), flush=True)
    print("== summary")
    for name, result in rows.items():
        if result is None:
            print(f"{name}: no result")
            continue
        frac = result["failed"] / result["attempted"]
        cells = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"{name}: failed_frac {frac:g} of {result['attempted']}; {cells}")
    print(json.dumps({
        "correct": worst == 0,
        "attempted": sum(r["attempted"] for r in rows.values() if r),
        "failed": sum(r["failed"] for r in rows.values() if r),
        "metrics": {f"{name}.{k}": m for name, r in rows.items() if r for k, m in r["metrics"].items()},
    }))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
