"""Command-line entry point: evolve / run / hybrid / analyze workflows.

Every command resolves its parameters (flags or config file), loads and
checks its inputs, then records the parameters verbatim in ``manifest.json``
inside the output directory and writes its result files deterministically.
``pushopt replay --manifest path`` re-runs any recorded command; repeated
runs from the same manifest produce byte-identical result files. All
randomness flows from the single ``seed`` parameter via named stream splitting.
"""

from __future__ import annotations

import argparse
import inspect
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
    write_csv,
    write_trajectory_csv,
    write_trajectory_jsonl,
)
from .problems import (
    DEFAULT_TRANSFORM_RANGES,
    ProblemFamily,
    Transform,
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
    save_program,
)


class CliError(Exception):
    pass


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


# ---------------------------------------------------------------------------
# Parameter schemas: single source of truth for defaults and validation
# ---------------------------------------------------------------------------

# Keys shared by every command that selects a problem and runs a swarm.
# Defaults that the library has too are read from its config classes
# and signatures.
PROBLEM_DEFAULTS = {"function": None, "D": None, "problem_seed": 0}
SWARM_DEFAULTS = {
    "swarm": RunConfig.swarm_size, "moves": RunConfig.moves,
    "execution_limit": RunConfig.execution_limit, "seed": RunConfig.seed,
}
# The values of the ``transforms`` key.
TRANSFORMS = ("random", "identity")

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
HYBRID_DEFAULTS.update({"pool": None, "dir": None, "top": None, "mode": hybrid.MODES[0]})

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
    "repeats": _default(analysis.simplify, "repeats"),
    "tolerance": _default(analysis.simplify, "tolerance"),
    "transforms": "random",
}

REEVALUATE_DEFAULTS = {
    "programs": [],
    "pools": [],
    "functions": None,  # required
    "D": None,  # required
    "problem_seed": 0,
    "runs": _default(analysis.reevaluate, "runs"),
    **SWARM_DEFAULTS,
    "jobs": 1,
}


def resolve_params(defaults: dict, given: dict, command: str) -> dict:
    """Overlay ``given`` on ``defaults``. An unknown key, or a value that
    does not have its key's JSON type, is a hard error."""
    if not isinstance(given, dict):
        raise CliError(f"{command} params must be a JSON object, not {type(given).__name__}")
    unknown = set(given) - set(defaults)
    if unknown:
        raise CliError(f"unknown {command} config keys: {', '.join(sorted(unknown))}")
    return {
        key: _checked(given[key], default, key, command) if key in given else default
        for key, default in defaults.items()
    }


# What an error message calls a value of each type, and a list of them.
_TYPE_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"), str: ("a string", "strings")}


def _has_type(value, kind) -> bool:
    # A JSON integer within the range of a float is a number too; a JSON
    # boolean is neither.
    if kind is float and type(value) is int:
        return abs(value) <= sys.float_info.max
    return type(value) is kind


def _checked(value, default, key: str, command: str):
    """``value`` if it has the JSON type of ``key``: that of ``default`` or,
    where that is null, of the key's flag; null only where ``default`` is.
    An object is checked key by key and completed from ``default``."""
    if isinstance(default, dict):
        if type(value) is not dict:
            raise CliError(f"{command}: {key} must be a JSON object, not {json.dumps(value)}")
        extra = set(value) - set(default)
        if extra:
            raise CliError(f"unknown {command} config keys under {key}: {', '.join(sorted(extra))}")
        return {k: _checked(value[k], d, f"{key}.{k}", command) if k in value else d for k, d in default.items()}
    if default is None:
        settings = FLAGS[key][1] if key in FLAGS else UNFLAGGED[key]
        kind, many = settings.get("type", str), "nargs" in settings
    else:
        many = isinstance(default, list)
        kind = type(default[0] if default else "") if many else type(default)
    if many:
        fits = type(value) is list and all(_has_type(item, kind) for item in value)
    else:
        fits = _has_type(value, kind)
    if not (fits or (value is None and default is None)):
        wanted = f"a list of {_TYPE_NAMES[kind][1]}" if many else _TYPE_NAMES[kind][0]
        raise CliError(f"{command}: {key} must be {wanted}, not {json.dumps(value)}")
    return value


def _require(params: dict, keys, command: str) -> None:
    missing = [k for k in keys if params.get(k) is None]
    if missing:
        raise CliError(f"{command} requires: {', '.join(missing)}")


def _write_manifest(out_dir: Path, command: str, params: dict) -> None:
    payload = {"command": command, "params": params}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _problem_family(params: dict, defaults: dict = None) -> ProblemFamily:
    """The family of a descriptor file, which excludes every problem key
    not at its ``defaults`` value, or of the problem keys."""
    if params["transforms"] not in TRANSFORMS:
        raise CliError(f"transforms must be one of {', '.join(TRANSFORMS)}, not {params['transforms']!r}")
    if params.get("problem_file"):
        family = problem_family_from_descriptor(_load_json_object(params["problem_file"]))
        given = [FLAGS[k][0] for k in ("function", "D", "problem_seed", "transforms") if params[k] != defaults[k]]
        if given:
            raise CliError(f"--problem excludes {', '.join(given)}")
        return family
    _require(params, ["function", "D"], "problem selection")
    function = make_function(params["function"], params["D"], params["problem_seed"])
    ranges = params.get("transform_ranges")
    # Ranges are built and checked even when the transforms are identity.
    ranges = DEFAULT_TRANSFORM_RANGES if ranges is None else TransformRanges(
        **{**ranges, "scale": tuple(ranges["scale"])}
    )
    return ProblemFamily(
        function, ranges if params["transforms"] == "random" else Transform.identity(function.dim)
    )


def _count(params: dict, key: str) -> int:
    """``params[key]``, checked as the library checks its counts."""
    if params[key] < 1:
        raise CliError(f"{key} must be >= 1")
    return params[key]


def _mode(params: dict, command: str) -> str:
    if params["mode"] not in MODES[command]:
        raise CliError(f"unknown {command} mode: {params['mode']!r}")
    return params["mode"]


def _run_config(params: dict, record: bool) -> RunConfig:
    return RunConfig(
        swarm_size=params["swarm"],
        moves=params["moves"],
        execution_limit=params["execution_limit"],
        record_trajectory=record,
        seed=params["seed"],
    )


def _is_inline(value: str) -> bool:
    # Inline text is told apart before the filesystem is asked: text longer
    # than a file name would make the probe itself fail.
    return value.lstrip().startswith("(")


def _load_program_arg(value) -> Program:
    if _is_inline(value):
        return parse_program(value)
    # Path("") is the current directory, so blank text names no file.
    if value.strip() and Path(value).exists():
        return load_program(value)
    raise CliError(f"program file not found: {value!r}")


def _repeat_and_write(runner, params: dict, out_dir: Path, result_files=()):
    """Check the problem, and a trajectory path against the result files;
    once resumed, repeat ``runner(problem, config)`` as ``params`` ask and
    write ``results.csv`` and, when one is named, the trajectory file."""
    record = params["trajectory"] is not None
    # run and hybrid share their problem defaults.
    family = _problem_family(params, RUN_DEFAULTS)
    config = _run_config(params, record)
    repeats = _count(params, "repeats")
    if record:
        path = Path(params["trajectory"])
        target = path.resolve()
        # The trajectory is written last: refuse a directory, or a file in a
        # directory that neither exists nor is --out, before anything runs.
        if target.is_dir() or target == out_dir.resolve():
            raise CliError(f"trajectory {path} names a directory")
        if not (path.parent.is_dir() or path.parent.resolve() == out_dir.resolve()):
            raise CliError(f"trajectory {path}: {path.parent} is not a directory")
        for name in ("manifest.json", "results.csv", *result_files):
            if target == (out_dir / name).resolve():
                raise CliError(f"trajectory {path} would overwrite the result file {name}")
    yield
    report = repeated_runs(runner, family, repeats, config)
    rows = [[r, format_value(result.pbest), result.evaluations_used, config.moves]
            for r, result in enumerate(report.results)]
    rows.append(["mean", format_value(report.mean), "", ""])
    write_csv(out_dir / "results.csv", ["repeat", "pbest", "evaluations", "moves"], rows)
    if record:
        write = write_trajectory_jsonl if str(path).endswith(".jsonl") else write_trajectory_csv
        write(path, list(enumerate(report.results)), run_id=params["seed"])


# ---------------------------------------------------------------------------
# Commands: each checks its inputs up to its one ``yield``, then runs and writes
# ---------------------------------------------------------------------------


def cmd_evolve(params: dict, out_dir: Path):
    """Run the evolutionary loop."""
    family = _problem_family(params)
    rates = params["rates"]
    instruction_set = (
        DEFAULT_INSTRUCTION_SET if params["instructions"] is None else InstructionSet(params["instructions"])
    )
    config = evolution.EvolutionConfig(
        population_size=params["pop"],
        generations=params["gens"],
        tournament_size=params["tournament"],
        size_limit=params["size_limit"],
        crossover_rate=rates["crossover"],
        mutation_rate=rates["mutation"],
        reproduction_rate=rates["reproduction"],
        repeats=params["repeats"],
        run=_run_config(params, record=False),
        instruction_set=instruction_set,
    )
    jobs = _count(params, "jobs")
    yield
    checkpoint_dir = out_dir / "checkpoints"
    checkpoint_dir.mkdir(parents=True, exist_ok=True)

    def on_generation(generation, population, fitnesses):
        hybrid.write_checkpoint(checkpoint_dir / f"gen_{generation:04d}.jsonl", population, fitnesses)

    result = evolution.evolve(config, family, on_generation=on_generation, jobs=jobs)
    save_program(result.best_program, out_dir / "best_program.txt")
    write_csv(
        out_dir / "generations.csv",
        ["generation", "best", "mean", "median", "best_so_far"],
        ([s.generation, *map(format_value, (s.best, s.mean, s.median, s.best_so_far))] for s in result.stats),
    )


def cmd_run(params: dict, out_dir: Path):
    """Run one program as an optimiser."""
    _require(params, ["program"], "run")
    program = _load_program_arg(params["program"])

    def runner(problem, run_config):
        return run_optimisation(program, problem, run_config)

    yield from _repeat_and_write(runner, params, out_dir)


def cmd_hybrid(params: dict, out_dir: Path):
    """Run a heterogeneous swarm over a pool."""
    if params.get("pool") and (params.get("dir") or params["top"] is not None):
        raise CliError("give either a pool manifest or a checkpoint dir with --top, not both")
    if params.get("pool"):
        pool = hybrid.load_pool_manifest(params["pool"])
    elif params.get("dir"):
        pool = hybrid.build_pool(_checkpoint_files(params["dir"]), top_n=params["top"])
    else:
        raise CliError("hybrid requires a pool manifest or a checkpoint dir")
    mode = _mode(params, "hybrid")

    def runner(problem, run_config):
        return hybrid.run_hybrid(pool, problem, run_config, mode=mode)

    yield from _repeat_and_write(runner, params, out_dir, ("pool.json",))
    hybrid.write_pool_manifest(pool, out_dir / "pool.json")


def _unique_label(taken, label: str, entry) -> str:
    """``label``, or the full ``entry`` when an earlier input took it."""
    if label not in taken:
        return label
    if str(entry) in taken:
        raise CliError(f"input given twice: {entry}")
    return str(entry)


def _checkpoint_files(directory) -> list:
    """The checkpoint files in ``directory``, in name order; at least one."""
    files = sorted(Path(directory).glob("*.jsonl"))
    if not files:
        raise CliError(f"no checkpoint files in {directory}")
    return files


def _collect_checkpoints(entries) -> dict:
    """Map a unique label to checkpoint files for each given path."""
    groups = {}
    for entry in entries:
        path = Path(entry)
        if path.is_dir():
            files = _checkpoint_files(path)
            label = path.name
        elif path.exists():
            files = [path]
            label = path.stem
        else:
            raise CliError(f"checkpoint path not found: {path}")
        groups[_unique_label(groups, label, path)] = files
    return groups


def cmd_analyze_usage(params: dict, out_dir: Path):
    """Instruction usage table."""
    _require(params, ["checkpoints"], "analyze usage")
    groups = {}
    for label, files in _collect_checkpoints(params["checkpoints"]).items():
        groups[label] = [entry.program for f in files for entry in hybrid.read_checkpoint(f)]
        if not groups[label]:
            raise CliError(f"checkpoint group {label} holds no programs")
    top = _count(params, "top")
    dynamic = _mode(params, "analyze-usage") == "dynamic"
    if dynamic:
        family = _problem_family({**params, "transforms": "random"})
        config = _run_config(params, record=False)
    yield
    per_label = {}
    for label, programs in groups.items():
        if dynamic:
            rows = analysis.dynamic_instruction_usage(programs, family, config, top=top)
        else:
            rows = analysis.instruction_usage(programs, top=top)
        per_label[label] = rows
        safe = label.replace("/", "_").replace("\\", "_")
        analysis.write_usage_csv(out_dir / f"usage_{safe}.csv", rows)
    write_csv(out_dir / "usage.csv", ["rank", *per_label], (
        [rank + 1, *(rows[rank].instruction if rank < len(rows) else "" for rows in per_label.values())]
        for rank in range(top)
    ))


def cmd_analyze_simplify(params: dict, out_dir: Path):
    """Remove effect-free instructions."""
    _require(params, ["program"], "analyze simplify")
    program = _load_program_arg(params["program"])
    family = _problem_family(params, SIMPLIFY_DEFAULTS)
    config = _run_config(params, record=False)
    repeats, tolerance = _count(params, "repeats"), params["tolerance"]
    yield
    simplified, before, after = analysis.simplify(program, family, config, repeats=repeats, tolerance=tolerance)
    save_program(simplified, out_dir / "simplified.txt")
    write_csv(out_dir / "simplify.csv", ["variant", "length", "fitness"], [
        ["input", len(program), format_value(before)],
        ["simplified", len(simplified), format_value(after)],
    ])


def cmd_analyze_reevaluate(params: dict, out_dir: Path):
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
    fids = params["functions"]
    for k, fid in enumerate(fids):
        if fid in fids[:k]:
            raise CliError(f"function given twice: {fid}")
    functions = [make_function(fid, params["D"], params["problem_seed"]) for fid in fids]
    config = _run_config(params, record=False)
    runs, jobs = _count(params, "runs"), _count(params, "jobs")
    yield
    report = analysis.reevaluate(list(optimisers.items()), functions, config, runs=runs, jobs=jobs)
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


def execute(command: str, given: dict, out_dir, replay: bool = False) -> None:
    """Run ``command``, recorded in ``out_dir/manifest.json``. ``out_dir`` is
    made only once the command has loaded and checked its inputs. A replay
    writes a trajectory under ``out_dir``, never over the original run's
    file."""
    if type(command) is not str or command not in COMMANDS:
        raise CliError(f"unknown command: {command!r}")
    defaults, fn = COMMANDS[command]
    params = resolve_params(defaults, given, command)
    out_dir = Path(out_dir)
    run_params = params
    if replay and params.get("trajectory") is not None:
        run_params = {**params, "trajectory": str(out_dir / Path(params["trajectory"]).name)}
    steps = fn(run_params, out_dir)
    next(steps)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, command, params)
    next(steps, None)


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
    "transforms": ("--transforms", {"choices": TRANSFORMS, "help": "instance transforms"}),
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

# The flag settings that type the one key with neither a default nor a
# flag: a list of instruction names.
UNFLAGGED = {"instructions": {"nargs": "*"}}

MODES = {"hybrid": hybrid.MODES, "analyze-usage": ["static", "dynamic"]}


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
        try:
            value = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: {exc}") from None
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
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
