"""Command-line entry point: evolve / run / hybrid / analyze workflows.

Every command resolves its parameters (flags or config file), records them
verbatim in ``manifest.json`` inside the output directory, and writes its
result files deterministically. ``pushopt replay --manifest path`` re-runs
any recorded command; repeated runs from the same manifest produce
byte-identical result files. All randomness flows from the single ``seed``
parameter via named stream splitting.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import analysis, evolution, hybrid
from .harness import (
    RunConfig,
    format_value,
    repeated_runs,
    run_optimisation,
    write_trajectory_csv,
    write_trajectory_jsonl,
)
from .problems import (
    DEFAULT_TRANSFORM_RANGES,
    ProblemFamily,
    TransformRanges,
    make_function,
    problem_family_from_descriptor,
)
from .push import (
    DEFAULT_INSTRUCTION_SET,
    InstructionSet,
    Program,
    load_program,
    parse_program,
    print_program,
    save_program,
)


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# Parameter schemas: single source of truth for defaults and validation
# ---------------------------------------------------------------------------

# Keys shared by every command that selects a problem and runs a swarm.
# Defaults that the library has too are read from its config classes.
PROBLEM_DEFAULTS = {"function": None, "D": None, "problem_seed": 0}
SWARM_DEFAULTS = {
    "swarm": RunConfig.swarm_size, "moves": RunConfig.moves,
    "execution_limit": RunConfig.execution_limit, "seed": RunConfig.seed,
}

EVOLVE_DEFAULTS = {
    **PROBLEM_DEFAULTS,  # function and D are required
    **SWARM_DEFAULTS,
    "pop": evolution.EvolutionConfig.population_size,
    "gens": evolution.EvolutionConfig.generations,
    "tournament": evolution.EvolutionConfig.tournament_size,
    "size_limit": evolution.EvolutionConfig.size_limit,
    "repeats": evolution.EvolutionConfig.repeats,
    "rates": {
        "crossover": evolution.EvolutionConfig.crossover_rate,
        "mutation": evolution.EvolutionConfig.mutation_rate,
        "reproduction": evolution.EvolutionConfig.reproduction_rate,
    },
    "transforms": "random",
    "transform_ranges": {**asdict(DEFAULT_TRANSFORM_RANGES), "scale": list(DEFAULT_TRANSFORM_RANGES.scale)},
    "instructions": None,  # null means the full default instruction set
    "jobs": 1,
}

RUN_DEFAULTS = {
    "program": None,  # required (path or program text)
    **PROBLEM_DEFAULTS,
    "problem_file": None,
    **SWARM_DEFAULTS,
    "repeats": 1,
    "transforms": "identity",
    "trajectory": None,
}

HYBRID_DEFAULTS = dict(RUN_DEFAULTS)
del HYBRID_DEFAULTS["program"]
HYBRID_DEFAULTS.update({"pool": None, "dir": None, "top": None, "mode": "per_move"})

USAGE_DEFAULTS = {
    "checkpoints": None,  # required: list of files or directories
    "top": 20,
    "mode": "static",
    **PROBLEM_DEFAULTS,
    **SWARM_DEFAULTS,
    "moves": 100,
}

SIMPLIFY_DEFAULTS = {
    "program": None,
    **PROBLEM_DEFAULTS,
    "problem_file": None,
    **SWARM_DEFAULTS,
    "moves": 100,
    "repeats": 10,
    "tolerance": 1e-6,
    "transforms": "random",
}

REEVALUATE_DEFAULTS = {
    "programs": [],
    "pools": [],
    "functions": None,  # required
    "D": None,  # required
    "problem_seed": 0,
    "runs": 25,
    **SWARM_DEFAULTS,
    "jobs": 1,
}


def resolve_params(defaults: dict, given: dict, command: str) -> dict:
    """Overlay ``given`` on ``defaults``; unknown keys are hard errors."""
    if not isinstance(given, dict):
        raise CliError(f"{command} params must be a JSON object, not {type(given).__name__}")
    unknown = set(given) - set(defaults)
    if unknown:
        raise CliError(f"unknown {command} config keys: {', '.join(sorted(unknown))}")
    params = {}
    for key, default in defaults.items():
        value = given.get(key, default)
        if isinstance(default, dict) and key in given:
            if not isinstance(value, dict):
                raise CliError(f"{command} config key {key} must be a JSON object")
            extra = set(value) - set(default)
            if extra:
                raise CliError(f"unknown {command} config keys under {key}: {', '.join(sorted(extra))}")
            value = {**default, **value}
        params[key] = value
    return params


def _require(params: dict, keys, command: str) -> None:
    missing = [k for k in keys if params.get(k) is None]
    if missing:
        raise CliError(f"{command} requires: {', '.join(missing)}")


def _write_manifest(out_dir: Path, command: str, params: dict) -> None:
    payload = {"command": command, "params": params}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _problem_family(params: dict) -> ProblemFamily:
    if params.get("problem_file"):
        return problem_family_from_descriptor(
            json.loads(Path(params["problem_file"]).read_text(encoding="utf-8"))
        )
    _require(params, ["function", "D"], "problem selection")
    function = make_function(params["function"], int(params["D"]), int(params["problem_seed"]))
    ranges = params.get("transform_ranges")
    return ProblemFamily(
        function,
        randomize=(params["transforms"] == "random"),
        ranges=DEFAULT_TRANSFORM_RANGES if ranges is None else TransformRanges(
            translate_frac=float(ranges["translate_frac"]),
            scale=tuple(ranges["scale"]),
            flip_prob=float(ranges["flip_prob"]),
        ),
    )


def _run_config(params: dict, record: bool) -> RunConfig:
    return RunConfig(
        swarm_size=int(params["swarm"]),
        moves=int(params["moves"]),
        execution_limit=int(params["execution_limit"]),
        record_trajectory=record,
        seed=int(params["seed"]),
    )


def _is_inline(value: str) -> bool:
    # Inline text is told apart before the filesystem is asked: text longer
    # than a file name would make the probe itself fail.
    return value.lstrip().startswith("(")


def _load_program_arg(value) -> Program:
    if _is_inline(value):
        return parse_program(value)
    path = Path(value)
    if path.exists():
        return load_program(path)
    raise CliError(f"program file not found: {value}")


def _repeat_and_write(runner, params: dict, out_dir: Path) -> None:
    """Repeat ``runner(problem, config)`` as ``params`` ask; write
    ``results.csv`` and, when one is named, the trajectory file."""
    record = params["trajectory"] is not None
    family = _problem_family(params)
    report = repeated_runs(runner, family, int(params["repeats"]), _run_config(params, record))
    with open(out_dir / "results.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["repeat", "pbest", "evaluations", "moves"])
        for r, result in enumerate(report.results):
            writer.writerow(
                [r, format_value(result.pbest), result.evaluations_used, result.moves_executed]
            )
        writer.writerow(["mean", format_value(report.mean), "", ""])
    if record:
        path = Path(params["trajectory"])
        write = write_trajectory_jsonl if str(path).endswith(".jsonl") else write_trajectory_csv
        write(path, list(enumerate(report.results)), run_id=int(params["seed"]))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_evolve(params: dict, out_dir: Path) -> None:
    """Run the evolutionary loop."""
    family = _problem_family(params)
    rates = params["rates"]
    instruction_set = (
        InstructionSet(params["instructions"]) if params["instructions"] else DEFAULT_INSTRUCTION_SET
    )
    config = evolution.EvolutionConfig(
        population_size=int(params["pop"]),
        generations=int(params["gens"]),
        tournament_size=int(params["tournament"]),
        size_limit=int(params["size_limit"]),
        crossover_rate=float(rates["crossover"]),
        mutation_rate=float(rates["mutation"]),
        reproduction_rate=float(rates["reproduction"]),
        repeats=int(params["repeats"]),
        run=_run_config(params, record=False),
        instruction_set=instruction_set,
        seed=int(params["seed"]),
    )
    checkpoint_dir = out_dir / "checkpoints"
    checkpoint_dir.mkdir(parents=True, exist_ok=True)

    def on_generation(generation, population, fitnesses):
        path = checkpoint_dir / f"gen_{generation:04d}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for program, fit in zip(population, fitnesses):
                fh.write(
                    json.dumps({"fitness": fit, "program": print_program(program)})
                    + "\n"
                )

    result = evolution.evolve(config, family, on_generation=on_generation, jobs=int(params["jobs"]))
    save_program(result.best_program, out_dir / "best_program.txt")
    with open(out_dir / "generations.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["generation", "best", "mean", "median", "best_so_far"])
        for s in result.stats:
            values = (s.best, s.mean, s.median, s.best_so_far)
            writer.writerow([s.generation] + [format_value(v) for v in values])


def cmd_run(params: dict, out_dir: Path) -> None:
    """Run one program as an optimiser."""
    _require(params, ["program"], "run")
    program = _load_program_arg(params["program"])

    def runner(problem, run_config):
        return run_optimisation(program, problem, run_config)

    _repeat_and_write(runner, params, out_dir)


def cmd_hybrid(params: dict, out_dir: Path) -> None:
    """Run a heterogeneous swarm over a pool."""
    if params.get("pool") and (params.get("dir") or params.get("top")):
        raise CliError("give either a pool manifest or a checkpoint dir with --top, not both")
    if params.get("pool"):
        pool = hybrid.load_pool_manifest(params["pool"])
    elif params.get("dir"):
        checkpoints = sorted(Path(params["dir"]).glob("*.jsonl"))
        if not checkpoints:
            raise CliError(f"no checkpoint files in {params['dir']}")
        top = int(params["top"]) if params.get("top") is not None else None
        pool = hybrid.build_pool(checkpoints, top_n=top)
    else:
        raise CliError("hybrid requires a pool manifest or a checkpoint dir")

    def runner(problem, run_config):
        return hybrid.run_hybrid(pool, problem, run_config, mode=params["mode"])

    _repeat_and_write(runner, params, out_dir)
    hybrid.write_pool_manifest(pool, out_dir / "pool.json")


def _unique_label(taken, label: str, entry) -> str:
    """``label``, or the full ``entry`` when an earlier input took it."""
    if label not in taken:
        return label
    if str(entry) in taken:
        raise CliError(f"input given twice: {entry}")
    return str(entry)


def _collect_checkpoints(entries) -> dict:
    """Map a unique label to checkpoint files for each given path."""
    groups = {}
    for entry in entries:
        path = Path(entry)
        if path.is_dir():
            files = sorted(path.glob("*.jsonl"))
            if not files:
                raise CliError(f"no checkpoint files in {path}")
            label = path.name
        elif path.exists():
            files = [path]
            label = path.stem
        else:
            raise CliError(f"checkpoint path not found: {path}")
        groups[_unique_label(groups, label, path)] = files
    return groups


def cmd_analyze_usage(params: dict, out_dir: Path) -> None:
    """Instruction usage table."""
    _require(params, ["checkpoints"], "analyze usage")
    groups = _collect_checkpoints(params["checkpoints"])
    top = int(params["top"])
    per_label = {}
    for label, files in groups.items():
        entries = []
        for f in files:
            entries.extend(hybrid.read_checkpoint(f))
        programs = [e.program for e in entries]
        if params["mode"] == "dynamic":
            family = _problem_family({**params, "transforms": "random"})
            rows = analysis.dynamic_instruction_usage(
                programs, family, _run_config(params, record=False), top=top
            )
        else:
            rows = analysis.instruction_usage(programs, top=top)
        per_label[label] = rows
        safe = label.replace("/", "_").replace("\\", "_")
        analysis.write_usage_csv(out_dir / f"usage_{safe}.csv", rows)
    with open(out_dir / "usage.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        labels = list(per_label)
        writer.writerow(["rank"] + labels)
        for rank in range(top):
            row = [rank + 1]
            for label in labels:
                rows = per_label[label]
                row.append(rows[rank].instruction if rank < len(rows) else "")
            writer.writerow(row)


def cmd_analyze_simplify(params: dict, out_dir: Path) -> None:
    """Remove effect-free instructions."""
    _require(params, ["program"], "analyze simplify")
    program = _load_program_arg(params["program"])
    family = _problem_family(params)
    config = _run_config(params, record=False)
    simplified, before, after = analysis.simplify(
        program, family, config, repeats=int(params["repeats"]), tolerance=float(params["tolerance"])
    )
    save_program(simplified, out_dir / "simplified.txt")
    with open(out_dir / "simplify.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant", "length", "fitness"])
        writer.writerow(["input", len(program), format_value(before)])
        writer.writerow(["simplified", len(simplified), format_value(after)])


def cmd_analyze_reevaluate(params: dict, out_dir: Path) -> None:
    """Error table over problems."""
    _require(params, ["functions", "D"], "analyze reevaluate")
    optimisers = {}
    for k, entry in enumerate(params["programs"], 1):
        label = f"inline_{k}" if _is_inline(entry) else Path(entry).stem
        optimisers[_unique_label(optimisers, label, entry)] = _load_program_arg(entry)
    for entry in params["pools"]:
        optimisers[_unique_label(optimisers, Path(entry).stem, entry)] = hybrid.load_pool_manifest(entry)
    if not optimisers:
        raise CliError("analyze reevaluate requires at least one program or pool")
    functions = [
        make_function(fid, int(params["D"]), int(params["problem_seed"]))
        for fid in params["functions"]
    ]
    report = analysis.reevaluate(
        list(optimisers.items()),
        functions,
        _run_config(params, record=False),
        runs=int(params["runs"]),
        jobs=int(params["jobs"]),
    )
    analysis.write_error_table_csv(out_dir / "errors.csv", report)
    analysis.write_per_run_csv(out_dir / "per_run.csv", report)


COMMANDS = {
    "evolve": (EVOLVE_DEFAULTS, cmd_evolve),
    "run": (RUN_DEFAULTS, cmd_run),
    "hybrid": (HYBRID_DEFAULTS, cmd_hybrid),
    "analyze-usage": (USAGE_DEFAULTS, cmd_analyze_usage),
    "analyze-simplify": (SIMPLIFY_DEFAULTS, cmd_analyze_simplify),
    "analyze-reevaluate": (REEVALUATE_DEFAULTS, cmd_analyze_reevaluate),
}


# The files besides manifest.json that the commands taking a trajectory
# write into their output directory; the trajectory may not name one.
RESULT_FILES = {"run": ("results.csv",), "hybrid": ("results.csv", "pool.json")}


def _check_trajectory(command: str, trajectory, out_dir: Path) -> None:
    if trajectory is None:
        return
    target = Path(trajectory).resolve()
    for name in ("manifest.json", *RESULT_FILES[command]):
        if target == (out_dir / name).resolve():
            raise CliError(f"trajectory {trajectory} would overwrite the result file {name}")


def execute(command: str, given: dict, out_dir, replay: bool = False) -> None:
    """Run ``command``, recorded in ``out_dir/manifest.json``. A replay writes
    a trajectory under ``out_dir``, never over the original run's file. A
    trajectory path that names one of the command's result files, and a
    problem descriptor that is refused, fail before anything is written."""
    if command not in COMMANDS:
        raise CliError(f"unknown command: {command!r}")
    defaults, fn = COMMANDS[command]
    params = resolve_params(defaults, given, command)
    out_dir = Path(out_dir)
    run_params = params
    if replay and params.get("trajectory") is not None:
        run_params = {**params, "trajectory": str(out_dir / Path(params["trajectory"]).name)}
    _check_trajectory(command, run_params.get("trajectory"), out_dir)
    if run_params.get("problem_file"):
        _problem_family(run_params)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, command, params)
    fn(run_params, out_dir)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# Flag spelling and argparse settings of every key that has a flag. Each
# command gets the flags of the keys its defaults table holds.
FLAGS = {
    "program": ("--program", {"required": True, "help": "program file (or inline text)"}),
    "programs": ("--programs", {"nargs": "*", "help": "program files"}),
    "pools": ("--pools", {"nargs": "*", "help": "pool manifest JSON files"}),
    "checkpoints": (
        "--checkpoints", {"nargs": "+", "required": True, "help": "checkpoint files or directories"}
    ),
    "pool": ("--pool", {"help": "pool manifest JSON"}),
    "dir": ("--dir", {"help": "directory of checkpoint JSONL files"}),
    "top": ("--top", {"type": int, "help": "keep the top-n programs or rows"}),
    "mode": ("--mode", {"help": "mode"}),
    "function": ("--function", {"help": "benchmark function id (e.g. F9)"}),
    "functions": ("--functions", {"nargs": "+", "help": "benchmark function ids"}),
    "D": ("--dim", {"type": int, "help": "problem dimensionality"}),
    "problem_seed": ("--problem-seed", {"type": int, "help": "seed of the function instance"}),
    "problem_file": ("--problem", {"help": "problem descriptor JSON file"}),
    "transforms": ("--transforms", {"choices": ["random", "identity"], "help": "instance transforms"}),
    "swarm": ("--swarm", {"type": int, "help": "swarm size"}),
    "moves": ("--moves", {"type": int, "help": "moves per run"}),
    "execution_limit": ("--execution-limit", {"type": int, "help": "executed items per move"}),
    "repeats": ("--repeats", {"type": int, "help": "number of repeated runs"}),
    "runs": ("--runs", {"type": int, "help": "runs per optimiser and function"}),
    "seed": ("--seed", {"type": int, "help": "master seed"}),
    "tolerance": ("--tolerance", {"type": float, "help": "relative fitness tolerance"}),
    "trajectory": ("--trajectory", {"help": "write trajectory CSV to this path"}),
    "jobs": ("--jobs", {"type": int, "help": "parallel worker processes"}),
}

MODES = {"hybrid": ["per_move", "per_member"], "analyze-usage": ["static", "dynamic"]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pushopt",
        description="Evolve, run, hybridise and analyse stack-program optimisers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = None
    for name, (defaults, fn) in COMMANDS.items():
        parent = sub
        if name.startswith("analyze-"):
            if analyze is None:
                p_an = sub.add_parser("analyze", help="usage / simplify / reevaluate tooling")
                analyze = p_an.add_subparsers(dest="analyze_command", required=True)
            parent = analyze
        p = parent.add_parser(name.removeprefix("analyze-"), help=fn.__doc__)
        p.set_defaults(command_key=name)
        if name == "evolve":
            p.add_argument("--config", required=True, help="JSON config file; flags override it")
        for key, default in defaults.items():
            if key in FLAGS:
                flag, settings = FLAGS[key]
                settings = {**settings, "dest": key}
                if key == "mode":
                    settings["choices"] = MODES[name]
                if default not in (None, []):
                    settings["help"] += f" (default {default})"
                p.add_argument(flag, **settings)
        p.add_argument("--out", required=True)

    p_replay = sub.add_parser("replay", help="re-run a recorded command")
    p_replay.add_argument("--manifest", required=True)
    p_replay.add_argument("--out", required=True)

    return parser


def _load_json_object(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        value = json.load(fh)
    if not isinstance(value, dict):
        raise CliError(f"{path} must hold a JSON object")
    return value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            recorded = _load_json_object(args.manifest)
            execute(recorded.get("command"), recorded.get("params"), args.out, replay=True)
        else:
            defaults, _ = COMMANDS[args.command_key]
            given = {k: v for k, v in vars(args).items() if k in defaults and v is not None}
            if args.command_key == "evolve":
                given = {**_load_json_object(args.config), **given}
            execute(args.command_key, given, args.out)
        return 0
    except (CliError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
