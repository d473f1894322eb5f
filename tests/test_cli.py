import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from pushopt.cli import COMMANDS, EVOLVE_DEFAULTS, FLAGS, CliError, main, resolve_params
from pushopt.problems import BenchmarkFunction, problem_family_from_descriptor, register_function

from conftest import EVOLVED_OPTIMISERS


def run_cli(*argv):
    return main(list(argv))


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def tiny_evolve_config(tmp_path):
    return write_json(
        tmp_path / "config.json",
        {
            "function": "F1",
            "D": 2,
            "swarm": 1,
            "moves": 20,
            "pop": 8,
            "gens": 2,
            "repeats": 1,
            "seed": 1,
        },
    )


def test_defaults_fill_evolutionary_parameters():
    params = resolve_params(
        EVOLVE_DEFAULTS,
        {"function": "F1", "D": 2, "swarm": 1, "moves": 200, "seed": 1},
        "evolve",
    )
    assert params["pop"] == 200
    assert params["gens"] == 50
    assert params["tournament"] == 5
    assert params["size_limit"] == 100
    assert params["execution_limit"] == 100
    assert params["repeats"] == 10
    assert params["rates"] == {"crossover": 0.4, "mutation": 0.4, "reproduction": 0.2}


def test_unknown_config_key_is_hard_error():
    with pytest.raises(CliError, match="unknown"):
        resolve_params(EVOLVE_DEFAULTS, {"function": "F1", "D": 2, "popsize": 9}, "evolve")


def test_unknown_nested_key_is_hard_error():
    with pytest.raises(CliError, match="rates"):
        resolve_params(
            EVOLVE_DEFAULTS,
            {"function": "F1", "D": 2, "rates": {"crossover": 1.0, "cloning": 0.0}},
            "evolve",
        )


def test_evolve_smoke(tmp_path, tiny_evolve_config):
    out = tmp_path / "out"
    assert run_cli("evolve", "--config", tiny_evolve_config, "--out", str(out)) == 0
    assert (out / "manifest.json").exists()
    assert (out / "best_program.txt").exists()
    assert (out / "generations.csv").exists()
    checkpoints = sorted((out / "checkpoints").glob("*.jsonl"))
    assert len(checkpoints) == 3  # generations 0..2
    best = (out / "best_program.txt").read_text()
    assert best.startswith("(") and best.rstrip().endswith(")")


def test_evolve_is_reproducible(tmp_path, tiny_evolve_config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("evolve", "--config", tiny_evolve_config, "--out", str(out_a)) == 0
    assert run_cli("evolve", "--config", tiny_evolve_config, "--out", str(out_b)) == 0
    assert (out_a / "best_program.txt").read_bytes() == (out_b / "best_program.txt").read_bytes()
    assert (out_a / "generations.csv").read_bytes() == (out_b / "generations.csv").read_bytes()


def test_run_evolved_program_with_trajectory(tmp_path):
    program = tmp_path / "f13.txt"
    program.write_text(EVOLVED_OPTIMISERS["F13"] + "\n")
    out = tmp_path / "out"
    trajectory = tmp_path / "trajectory.csv"
    code = run_cli(
        "run",
        "--program", str(program),
        "--function", "F13",
        "--dim", "2",
        "--swarm", "1",
        "--moves", "50",
        "--repeats", "2",
        "--seed", "3",
        "--trajectory", str(trajectory),
        "--out", str(out),
    )
    assert code == 0
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == "repeat,pbest,evaluations,moves"
    assert len(results) == 1 + 2 + 1  # header + repeats + mean
    assert results[-1].startswith("mean,")
    rows = trajectory.read_text().splitlines()
    move_rows = [r for r in rows[1:] if r.split(",")[2] != "0"]
    assert len(move_rows) == 2 * 1 * 50  # repeats x swarm x moves


def test_run_25_repeats_rows(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run",
        "--program", "(0.0 vector.wrand)",
        "--function", "F1",
        "--dim", "2",
        "--moves", "5",
        "--repeats", "25",
        "--out", str(out),
    )
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 25 + 1
    assert all(line.split(",")[3] == "5" for line in lines[1:-1])  # the moves column


def test_run_missing_program_file_fails_cleanly(tmp_path, capsys):
    code = run_cli(
        "run",
        "--program", str(tmp_path / "nope.txt"),
        "--function", "F1",
        "--dim", "2",
        "--out", str(tmp_path / "out"),
    )
    assert code != 0
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_unknown_function_fails_cleanly(tmp_path, capsys):
    code = run_cli(
        "run",
        "--program", "(exec.noop)",
        "--function", "F77",
        "--dim", "2",
        "--out", str(tmp_path / "out"),
    )
    assert code != 0
    assert "unsupported function" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _write_checkpoints(tmp_path, n=6):
    directory = tmp_path / "checkpoints"
    directory.mkdir(parents=True)
    texts = sorted(EVOLVED_OPTIMISERS.values())
    for i in range(n):
        path = directory / f"run_{i:02d}.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"fitness": float(i), "program": texts[i % len(texts)]}) + "\n")
    return directory


def test_hybrid_top1_equals_run_of_best_program(tmp_path):
    directory = _write_checkpoints(tmp_path)
    out_hybrid = tmp_path / "hybrid"
    out_run = tmp_path / "run"
    common = ["--function", "F9", "--dim", "2", "--swarm", "2", "--moves", "30", "--seed", "5"]
    assert run_cli("hybrid", "--dir", str(directory), "--top", "1", *common, "--out", str(out_hybrid)) == 0
    best_text = sorted(EVOLVED_OPTIMISERS.values())[0]
    program = tmp_path / "best.txt"
    program.write_text(best_text + "\n")
    assert run_cli("run", "--program", str(program), *common, "--out", str(out_run)) == 0
    assert (out_hybrid / "results.csv").read_bytes() == (out_run / "results.csv").read_bytes()


def test_hybrid_top5_pool_size(tmp_path):
    directory = _write_checkpoints(tmp_path)
    out = tmp_path / "out"
    code = run_cli(
        "hybrid",
        "--dir", str(directory),
        "--top", "5",
        "--function", "F9",
        "--dim", "2",
        "--moves", "10",
        "--out", str(out),
    )
    assert code == 0

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    pool = json.loads((out / "pool.json").read_text(), parse_constant=refuse)
    assert len(pool["programs"]) == 5


def test_hybrid_manifest_and_top_conflict(tmp_path, capsys):
    directory = _write_checkpoints(tmp_path)
    pool_file = tmp_path / "pool.json"
    run_cli(
        "hybrid", "--dir", str(directory), "--top", "2",
        "--function", "F9", "--dim", "2", "--moves", "5",
        "--out", str(tmp_path / "first"),
    )
    pool_file.write_bytes((tmp_path / "first" / "pool.json").read_bytes())
    code = run_cli(
        "hybrid", "--pool", str(pool_file), "--top", "2",
        "--function", "F9", "--dim", "2", "--moves", "5",
        "--out", str(tmp_path / "second"),
    )
    assert code != 0
    assert "not both" in capsys.readouterr().err
    assert not (tmp_path / "second").exists()


def test_analyze_usage_over_directories(tmp_path):
    # four checkpoint groups -> four ranked columns side by side
    dirs = [str(_write_checkpoints(tmp_path / name)) for name in ("a", "b", "c", "d")]
    out = tmp_path / "out"
    code = run_cli(
        "analyze", "usage",
        "--checkpoints", *dirs,
        "--top", "5",
        "--out", str(out),
    )
    assert code == 0
    combined = (out / "usage.csv").read_text().splitlines()
    header = combined[0].split(",")
    assert header[0] == "rank"
    assert len(header) == 5  # one ranked column per input, disambiguated
    assert len(set(header[1:])) == 4
    assert len(combined) == 6
    per_label = (out / "usage_checkpoints.csv").read_text().splitlines()
    assert per_label[0] == "rank,instruction,count,rate"


def test_analyze_usage_dynamic_mode(tmp_path):
    directory = _write_checkpoints(tmp_path)
    out = tmp_path / "out"
    code = run_cli(
        "analyze", "usage",
        "--checkpoints", str(directory),
        "--mode", "dynamic",
        "--function", "F9",
        "--dim", "2",
        "--top", "5",
        "--out", str(out),
    )
    assert code == 0
    lines = (out / "usage_checkpoints.csv").read_text().splitlines()
    assert lines[0] == "rank,instruction,count,rate"
    assert len(lines) > 1


def test_analyze_simplify(tmp_path):
    program = tmp_path / "prog.txt"
    program.write_text("(0.0 vector.wrand exec.noop exec.noop)\n")
    out = tmp_path / "out"
    code = run_cli(
        "analyze", "simplify",
        "--program", str(program),
        "--function", "F1",
        "--dim", "2",
        "--moves", "10",
        "--repeats", "2",
        "--out", str(out),
    )
    assert code == 0
    simplified = (out / "simplified.txt").read_text()
    assert "exec.noop" not in simplified
    table = (out / "simplify.csv").read_text().splitlines()
    assert table[0] == "variant,length,fitness"


def test_analyze_reevaluate_grid(tmp_path):
    p1 = tmp_path / "origin.txt"
    p1.write_text("(0.0 vector.wrand)\n")
    p2 = tmp_path / "noop.txt"
    p2.write_text("(exec.noop)\n")
    out = tmp_path / "out"
    code = run_cli(
        "analyze", "reevaluate",
        "--programs", str(p1), str(p2),
        "--functions", "F1", "F9", "F13", "F14", "F12",
        "--dim", "2",
        "--runs", "3",
        "--moves", "10",
        "--out", str(out),
    )
    assert code == 0
    lines = (out / "errors.csv").read_text().splitlines()
    assert lines[0] == "optimiser,runs,F1,F9,F13,F14,F12,mean_rank"
    assert len(lines) == 3
    per_run = (out / "per_run.csv").read_text().splitlines()
    assert len(per_run) == 1 + 2 * 5 * 3


def test_reevaluate_labels_inline_programs_by_position(tmp_path, capsys):
    # Inline text is labelled by its place in --programs and files by their
    # stems; a stem already taken falls back to the full entry, and an
    # entry given again after that is refused.
    (tmp_path / "a").mkdir()
    first, second = tmp_path / "origin.txt", tmp_path / "a" / "origin.txt"
    for path in (first, second):
        path.write_text("(0.0 vector.wrand)\n")
    argv = ["analyze", "reevaluate", "--functions", "F1", "--dim", "2", "--runs", "2", "--moves", "3"]
    programs = ["(0.0 vector.wrand float./ float.abs)", str(first), "(0.0 vector.wrand)", str(second)]
    out = tmp_path / "out"
    assert run_cli(*argv, "--programs", *programs, "--out", str(out)) == 0
    labels = [line.split(",")[0] for line in (out / "errors.csv").read_text().splitlines()[1:]]
    assert labels == ["inline_1", "origin", "inline_3", str(second)]
    assert run_cli(*argv, "--programs", *[str(first)] * 3, "--out", str(tmp_path / "twice")) == 1
    assert capsys.readouterr().err == f"error: input given twice: {first}\n"


def test_evolve_checkpoints_feed_hybrid(tmp_path, tiny_evolve_config):
    out = tmp_path / "evolved"
    assert run_cli("evolve", "--config", tiny_evolve_config, "--out", str(out)) == 0
    hybrid_out = tmp_path / "hybrid"
    code = run_cli(
        "hybrid",
        "--dir", str(out / "checkpoints"),
        "--top", "3",
        "--function", "F1",
        "--dim", "2",
        "--moves", "20",
        "--seed", "2",
        "--out", str(hybrid_out),
    )
    assert code == 0
    pool = json.loads((hybrid_out / "pool.json").read_text())
    assert len(pool["programs"]) == 3
    replay_out = tmp_path / "hybrid_replay"
    assert run_cli("replay", "--manifest", str(hybrid_out / "manifest.json"), "--out", str(replay_out)) == 0
    assert (hybrid_out / "results.csv").read_bytes() == (replay_out / "results.csv").read_bytes()


def test_readers_take_programs_longer_than_the_default_size_limit(tmp_path):
    config = write_json(
        tmp_path / "config.json",
        {"function": "F1", "D": 2, "pop": 6, "gens": 1, "repeats": 1, "moves": 20, "seed": 1,
         "size_limit": 150},
    )
    out = tmp_path / "evolved"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 0
    checkpoints = out / "checkpoints"
    lengths = [
        len(json.loads(line)["program"].split())
        for path in checkpoints.iterdir()
        for line in path.read_text().splitlines()
    ]
    assert max(lengths) > 100
    assert run_cli("analyze", "usage", "--checkpoints", str(checkpoints), "--out", str(tmp_path / "usage")) == 0
    code = run_cli(
        "hybrid", "--dir", str(checkpoints), "--top", "3", "--function", "F1", "--dim", "2",
        "--moves", "20", "--out", str(tmp_path / "hybrid"),
    )
    assert code == 0


def test_run_with_problem_descriptor(tmp_path):
    descriptor = write_json(
        tmp_path / "problem.json",
        {"id": "F9", "D": 3, "seed": 5, "transform": "identity"},
    )
    out = tmp_path / "out"
    code = run_cli(
        "run",
        "--program", "(0.1 vector.wrand vector.best vector.+)",
        "--problem", descriptor,
        "--moves", "10",
        "--out", str(out),
    )
    assert code == 0
    assert (out / "results.csv").exists()


@pytest.mark.parametrize(
    "transform",
    [
        {"translation": [1.0], "scale": [2.0], "flip": [1.0]},
        {"translation": [0.0] * 3, "scale": [0.0, 1.0, 1.0], "flip": [1.0] * 3},
        {"translation": [0.0] * 3, "scale": [1.0] * 3, "flip": [1.0, 5.0, 1.0]},
        {"translation": {}, "scale": [1.0] * 3, "flip": [1.0] * 3},
    ],
    ids=["lists-shorter-than-D", "zero-scale", "flip-5", "translation-object"],
)
def test_run_with_bad_explicit_transform_fails_cleanly(tmp_path, capsys, transform):
    descriptor = write_json(tmp_path / "problem.json", {"id": "F1", "D": 3, "transform": transform})
    out = tmp_path / "out"
    code = run_cli("run", "--program", "(0.0 vector.wrand)", "--problem", descriptor, "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: transform ")
    assert not out.exists()


@pytest.mark.parametrize(
    "bounds",
    [[-1e308, 1e308], [1, 1], [2, 1], [1], ["a", 1]],
    ids=["width-overflows", "zero-width", "reversed", "one-value", "not-a-number"],
)
def test_run_with_bad_bounds_override_fails_cleanly(tmp_path, capsys, bounds):
    descriptor = write_json(tmp_path / "problem.json", {"id": "F1", "D": 2, "bounds_override": bounds})
    out = tmp_path / "out"
    code = run_cli(
        "run", "--program", "(0.0 vector.wrand)", "--problem", descriptor, "--moves", "3", "--out", str(out)
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: bounds_override ")
    assert not out.exists()


# Objectives whose values cannot be feedback: inf everywhere (so already at
# initialisation), nan at the origin that "(0.0 vector.wrand)" proposes on
# its first move, and a numpy overflow.
register_function(
    "STUB-INF",
    lambda dim, seed, bounds=None: BenchmarkFunction("STUB-INF", dim, -1.0, 1.0, np.zeros(dim)),
    lambda fn, x: math.inf,
)
register_function(
    "STUB-NAN-AT-ORIGIN",
    lambda dim, seed, bounds=None: BenchmarkFunction("STUB-NAN-AT-ORIGIN", dim, -1.0, 1.0, np.zeros(dim)),
    lambda fn, x: math.nan if not x.any() else 1.0,
)
register_function(
    "STUB-OVERFLOW",
    lambda dim, seed, bounds=None: BenchmarkFunction("STUB-OVERFLOW", dim, -1.0, 1.0, np.zeros(dim)),
    lambda fn, x: float(np.exp(x + 1000.0).sum()),
)


@pytest.mark.parametrize(
    "fid, message",
    [
        ("STUB-INF", "returned a non-finite value: inf"),
        ("STUB-NAN-AT-ORIGIN", "returned a non-finite value: nan"),
        ("STUB-OVERFLOW", "raised a floating-point error"),
    ],
)
def test_run_with_non_finite_objective_values_fails_cleanly(tmp_path, capsys, fid, message):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--program", "(0.0 vector.wrand)", "--function", fid, "--dim", "2",
        "--transforms", "identity", "--moves", "3", "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: objective {fid} {message}")
    assert not (out / "results.csv").exists()


def test_run_jsonl_trajectory(tmp_path):
    out = tmp_path / "out"
    trajectory = tmp_path / "trajectory.jsonl"
    code = run_cli(
        "run",
        "--program", "(0.0 vector.wrand)",
        "--function", "F1",
        "--dim", "2",
        "--moves", "4",
        "--trajectory", str(trajectory),
        "--out", str(out),
    )
    assert code == 0
    records = [json.loads(line) for line in trajectory.read_text().splitlines()]
    assert len(records) == 5
    assert all("pbest" in r for r in records)


def test_evolve_with_restricted_instruction_set(tmp_path):
    config = write_json(
        tmp_path / "config.json",
        {
            "function": "F1",
            "D": 2,
            "swarm": 1,
            "moves": 10,
            "pop": 6,
            "gens": 1,
            "repeats": 1,
            "seed": 2,
            "instructions": ["vector.wrand", "vector.best", "vector.+", "float.rand"],
        },
    )
    out = tmp_path / "out"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 0
    best = (out / "best_program.txt").read_text().strip()
    tokens = best.strip("()").split()
    allowed = {"vector.wrand", "vector.best", "vector.+", "float.rand"}
    for token in tokens:
        if "." in token and not token.replace(".", "").replace("-", "").isdigit():
            assert token in allowed


def test_evolve_rejects_unknown_instruction_name(tmp_path, capsys):
    config = write_json(
        tmp_path / "config.json",
        {
            "function": "F1",
            "D": 2,
            "pop": 4,
            "gens": 0,
            "repeats": 1,
            "moves": 5,
            "seed": 2,
            "instructions": ["vector.teleport"],
        },
    )
    code = run_cli("evolve", "--config", config, "--out", str(tmp_path / "out"))
    assert code != 0
    assert "unknown instructions" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _golden_cases(tmp_path):
    """One argv per command and the ``params`` its manifest must record."""
    checkpoints = _write_checkpoints(tmp_path)
    config = write_json(
        tmp_path / "config.json",
        {"function": "F1", "D": 2, "pop": 4, "gens": 0, "repeats": 1, "moves": 5,
         "seed": 2, "jobs": 2, "rates": {"crossover": 0.5, "mutation": 0.3, "reproduction": 0.2}},
    )
    program = tmp_path / "origin.txt"
    program.write_text("(0.0 vector.wrand)\n")
    trajectory = str(tmp_path / "trajectory.csv")
    return {
        "evolve": (
            ["evolve", "--config", config, "--seed", "7", "--jobs", "1"],
            {
                "function": "F1", "D": 2, "seed": 7, "problem_seed": 0, "swarm": 1,
                "moves": 5, "pop": 4, "gens": 0, "tournament": 5, "size_limit": 100,
                "execution_limit": 100, "repeats": 1,
                "rates": {"crossover": 0.5, "mutation": 0.3, "reproduction": 0.2},
                "transforms": "random",
                "transform_ranges": {"translate_frac": 0.5, "scale": [0.5, 2.0], "flip_prob": 0.5},
                "instructions": None, "jobs": 1,
            },
        ),
        "run": (
            ["run", "--program", "(0.0 vector.wrand)", "--function", "F1", "--dim", "2",
             "--problem-seed", "4", "--swarm", "2", "--moves", "5", "--execution-limit", "50",
             "--repeats", "2", "--seed", "3", "--transforms", "random", "--trajectory", trajectory],
            {
                "program": "(0.0 vector.wrand)", "function": "F1", "D": 2, "problem_seed": 4,
                "problem_file": None, "swarm": 2, "moves": 5, "execution_limit": 50,
                "repeats": 2, "seed": 3, "transforms": "random", "trajectory": trajectory,
            },
        ),
        "hybrid": (
            ["hybrid", "--dir", str(checkpoints), "--top", "2", "--mode", "per_member",
             "--function", "F9", "--dim", "2", "--moves", "5", "--seed", "5"],
            {
                "pool": None, "dir": str(checkpoints), "top": 2, "mode": "per_member",
                "function": "F9", "D": 2, "problem_seed": 0, "problem_file": None, "swarm": 1,
                "moves": 5, "execution_limit": 100, "repeats": 1, "seed": 5,
                "transforms": "identity", "trajectory": None,
            },
        ),
        "analyze-usage": (
            ["analyze", "usage", "--checkpoints", str(checkpoints), "--top", "3",
             "--mode", "dynamic", "--function", "F1", "--dim", "2", "--problem-seed", "1",
             "--seed", "2"],
            {
                "checkpoints": [str(checkpoints)], "top": 3, "mode": "dynamic",
                "function": "F1", "D": 2, "problem_seed": 1, "swarm": 1, "moves": 100,
                "execution_limit": 100, "seed": 2,
            },
        ),
        "analyze-simplify": (
            ["analyze", "simplify", "--program", "(0.0 vector.wrand exec.noop)",
             "--function", "F1", "--dim", "2", "--swarm", "1", "--moves", "5",
             "--repeats", "2", "--seed", "3", "--tolerance", "0.001", "--transforms", "identity"],
            {
                "program": "(0.0 vector.wrand exec.noop)", "function": "F1", "D": 2,
                "problem_seed": 0, "problem_file": None, "swarm": 1, "moves": 5,
                "execution_limit": 100, "repeats": 2, "seed": 3, "tolerance": 0.001,
                "transforms": "identity",
            },
        ),
        "analyze-reevaluate": (
            ["analyze", "reevaluate", "--programs", str(program), "--functions", "F1", "F9",
             "--dim", "2", "--problem-seed", "1", "--runs", "2", "--swarm", "1",
             "--moves", "5", "--seed", "4", "--jobs", "1"],
            {
                "programs": [str(program)], "pools": [], "functions": ["F1", "F9"], "D": 2,
                "problem_seed": 1, "runs": 2, "swarm": 1, "moves": 5, "execution_limit": 100,
                "seed": 4, "jobs": 1,
            },
        ),
    }


@pytest.mark.parametrize(
    "command",
    ["evolve", "run", "hybrid", "analyze-usage", "analyze-simplify", "analyze-reevaluate"],
)
def test_manifest_params_match_golden(tmp_path, command):
    argv, expected = _golden_cases(tmp_path)[command]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest == {"command": command, "params": expected}


def test_flags_for_config_only_keys_reach_the_manifest(tmp_path, tiny_evolve_config):
    # Keys these commands accepted only through a config or manifest now have flags too.
    directory = _write_checkpoints(tmp_path)
    program = tmp_path / "origin.txt"
    program.write_text("(0.0 vector.wrand)\n")
    limit = ["--execution-limit", "50"]
    cases = [
        (
            ["evolve", "--config", tiny_evolve_config, "--function", "F9", "--dim", "3",
             "--problem-seed", "2", "--swarm", "2", "--moves", "5", "--repeats", "2",
             "--transforms", "identity", *limit],
            {"function": "F9", "D": 3, "problem_seed": 2, "swarm": 2, "moves": 5, "repeats": 2,
             "transforms": "identity", "execution_limit": 50, "pop": 8, "seed": 1},
        ),
        (
            ["analyze", "usage", "--checkpoints", str(directory), "--swarm", "2", "--moves", "7", *limit],
            {"swarm": 2, "moves": 7, "execution_limit": 50},
        ),
        (
            ["analyze", "simplify", "--program", "(0.0 vector.wrand)", "--function", "F1",
             "--dim", "2", "--moves", "5", "--repeats", "1", *limit],
            {"execution_limit": 50},
        ),
        (
            ["analyze", "reevaluate", "--programs", str(program), "--functions", "F1",
             "--dim", "2", "--runs", "1", "--moves", "5", *limit],
            {"execution_limit": 50},
        ),
    ]
    for i, (argv, expected) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert run_cli(*argv, "--out", str(out)) == 0
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert {key: params[key] for key in expected} == expected


def test_replay_produces_identical_csvs(tmp_path):
    directory = _write_checkpoints(tmp_path)
    program = tmp_path / "origin.txt"
    program.write_text("(0.0 vector.wrand)\n")
    cases = [
        [
            "run",
            "--program", "(0.5 vector.wrand vector.best vector.+)",
            "--function", "F9",
            "--dim", "2",
            "--moves", "40",
            "--repeats", "3",
            "--seed", "9",
            "--transforms", "random",
        ],
        [
            "analyze", "usage",
            "--checkpoints", str(directory),
            "--mode", "dynamic",
            "--function", "F9",
            "--dim", "2",
            "--top", "5",
            "--seed", "8",
        ],
        [
            "analyze", "simplify",
            "--program", "(0.0 vector.wrand exec.noop exec.noop)",
            "--function", "F1",
            "--dim", "2",
            "--moves", "10",
            "--repeats", "2",
            "--seed", "7",
        ],
        [
            "analyze", "reevaluate",
            "--programs", str(program),
            "--functions", "F1", "F9",
            "--dim", "2",
            "--runs", "2",
            "--moves", "10",
            "--seed", "6",
        ],
        [
            "run",
            "--program", "(0.5 vector.wrand vector.best vector.+)",
            "--function", "F14",
            "--dim", "3",
            "--swarm", "2",
            "--moves", "20",
            "--repeats", "2",
            "--seed", "4",
            "--transforms", "random",
            "--trajectory", str(tmp_path / "traj.csv"),
        ],
    ]
    for i, argv in enumerate(cases):
        out_a = tmp_path / f"a{i}"
        out_b = tmp_path / f"b{i}"
        assert run_cli(*argv, "--out", str(out_a)) == 0
        trajectory = Path(argv[argv.index("--trajectory") + 1]) if "--trajectory" in argv else None
        if trajectory is not None:
            # Keep the run's trajectory for the comparison below, then stand
            # in for a later run writing the same path: the replay must write
            # its own copy under its --out and leave this file alone.
            shutil.copyfile(trajectory, out_a / trajectory.name)
            trajectory.write_text("a later run\n")
        assert run_cli("replay", "--manifest", str(out_a / "manifest.json"), "--out", str(out_b)) == 0
        if trajectory is not None:
            assert trajectory.read_text() == "a later run\n"
        files = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert len(files) >= 2  # manifest.json and at least one result file
        for name in files:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (argv[:2], name)


@pytest.mark.parametrize(
    "command, payload",
    [
        ("replay", {"command": "bogus", "params": {}}),
        ("replay", {"params": {"program": "(exec.noop)"}}),
        ("replay", {"command": "run"}),
        ("replay", {"command": "run", "params": ["(exec.noop)"]}),
        ("evolve", ["F1", 2]),
        ("evolve", {"function": "F1", "D": 2, "rates": 5}),
        ("replay", {"command": ["run"], "params": {}}),
    ],
    ids=["unknown-command", "no-command", "no-params", "params-list", "config-list", "rates-number", "command-list"],
)
def test_bad_manifest_or_config_fails_cleanly(tmp_path, capsys, command, payload):
    path = write_json(tmp_path / "input.json", payload)
    flag = "--manifest" if command == "replay" else "--config"
    assert run_cli(command, flag, path, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


TRAJECTORY_CLASHES = [
    ("run", "results.csv"),
    ("run", "manifest.json"),
    ("hybrid", "results.csv"),
    ("hybrid", "manifest.json"),
    ("hybrid", "pool.json"),
]


def _trajectory_argv(tmp_path, command):
    if command == "run":
        source = ["--program", "(0.0 vector.wrand)"]
    else:
        source = ["--dir", str(_write_checkpoints(tmp_path)), "--top", "1"]
    return [command, *source, "--function", "F1", "--dim", "2", "--moves", "3"]


@pytest.mark.parametrize("command, name", TRAJECTORY_CLASHES)
def test_trajectory_over_a_result_file_fails_cleanly(tmp_path, capsys, monkeypatch, command, name):
    monkeypatch.chdir(tmp_path)
    argv = _trajectory_argv(tmp_path, command)
    assert run_cli(*argv, "--trajectory", f"out/{name}", "--out", "out") == 1
    assert capsys.readouterr().err.startswith(f"error: trajectory out/{name} would overwrite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, name", TRAJECTORY_CLASHES)
def test_replayed_trajectory_over_a_result_file_fails_cleanly(tmp_path, capsys, command, name):
    # The recorded run wrote its trajectory outside its --out; a replay
    # writes it under its own --out, where the name is a result file's.
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    argv = _trajectory_argv(tmp_path, command)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*argv, "--trajectory", str(elsewhere / name), "--out", str(out_a)) == 0
    assert run_cli("replay", "--manifest", str(out_a / "manifest.json"), "--out", str(out_b)) == 1
    assert capsys.readouterr().err.startswith("error: trajectory ")
    assert not out_b.exists()


@pytest.mark.parametrize("mode", ["static", "dynamic"])
@pytest.mark.parametrize("top", ["0", "-1"])
def test_usage_top_below_one_fails_cleanly(tmp_path, capsys, mode, top):
    directory = _write_checkpoints(tmp_path)
    argv = ["analyze", "usage", "--checkpoints", str(directory), "--mode", mode, "--top", top]
    argv += ["--function", "F1", "--dim", "2", "--moves", "5"]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: top must be >= 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["analyze", "reevaluate", "--runs", "0"], None),
        (["analyze", "reevaluate", "--jobs", "0"], None),
        (["analyze", "reevaluate", "--jobs", "-3"], None),
        (["evolve"], {"tournament": 0}),
        (["evolve", "--jobs", "0"], {}),
        (["evolve", "--jobs", "-3"], {}),
        (["evolve"], {"gens": -1}),
        (["evolve"], {"size_limit": 0}),
        (["analyze", "reevaluate", "--execution-limit", "0"], None),
        (["evolve"], {"execution_limit": 0}),
    ],
    ids=["reevaluate-runs-0", "reevaluate-jobs-0", "reevaluate-jobs-neg", "evolve-tournament-0",
         "evolve-jobs-0", "evolve-jobs-neg", "evolve-gens-neg", "evolve-size-limit-0",
         "reevaluate-execution-limit-0", "evolve-execution-limit-0"],
)
def test_out_of_range_count_fails_cleanly(tmp_path, capsys, argv, config):
    if config is None:
        program = tmp_path / "origin.txt"
        program.write_text("(0.0 vector.wrand)\n")
        argv = argv + ["--programs", str(program), "--functions", "F1", "--dim", "2", "--moves", "5"]
    else:
        base = {"function": "F1", "D": 2, "pop": 4, "gens": 1, "repeats": 1, "moves": 5}
        argv = argv + ["--config", write_json(tmp_path / "config.json", {**base, **config})]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# Inline program text longer than a file name may be (255 bytes on common
# filesystems).
LONG_PROGRAM = "(" + " ".join(["float.abs"] * 30) + " 0.0 vector.wrand)"


@pytest.mark.parametrize(
    "argv, result",
    [
        (["run", "--program", LONG_PROGRAM, "--function", "F1"], "results.csv"),
        (["analyze", "simplify", "--program", LONG_PROGRAM, "--function", "F1", "--repeats", "2"], "simplified.txt"),
        (["analyze", "reevaluate", "--programs", LONG_PROGRAM, "--functions", "F1", "--runs", "2"], "errors.csv"),
    ],
    ids=["run", "simplify", "reevaluate"],
)
def test_long_inline_program_is_parsed(tmp_path, capsys, argv, result):
    assert len(LONG_PROGRAM.encode()) > 255
    out = tmp_path / "out"
    assert run_cli(*argv, "--dim", "2", "--moves", "3", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert (out / result).exists()


def _bad_pool(tmp_path, payload):
    return ["hybrid", "--pool", write_json(tmp_path / "pool.json", payload), "--function", "F1"]


def _bad_pool_entry(tmp_path, payload):
    path = write_json(tmp_path / "pool.json", payload)
    return ["analyze", "reevaluate", "--pools", path, "--functions", "F1"]


def _bad_checkpoint_line(tmp_path, payload):
    path = tmp_path / "run.jsonl"
    line = json.dumps({"fitness": 0.5, "program": "(0.0 vector.wrand)"})
    path.write_text(line + "\n" + json.dumps(payload) + "\n")
    return ["analyze", "usage", "--checkpoints", str(path)]


@pytest.mark.parametrize(
    "build, payload, message",
    [
        (_bad_pool, {"pool": []}, 'is not a JSON object with "programs"'),
        (_bad_pool, [1, 2], 'is not a JSON object with "programs"'),
        (_bad_pool, {"programs": 5}, '"programs" is not a JSON list'),
        (_bad_pool_entry, {"programs": [{"fitness": 1.0}]}, 'entry 0 is not a JSON object with "program"'),
        (_bad_checkpoint_line, {"fitness": 1.0}, 'run.jsonl:2 is not a JSON object with "program" and "fitness"'),
        (_bad_pool_entry, {"programs": [{"program": "(float.abs no.such)"}]},
         "pool.json entry 0: unknown instruction: no.such"),
        (_bad_pool_entry, {"programs": [{"program": 5}]}, 'pool.json entry 0: "program" is not a JSON string'),
        (_bad_checkpoint_line, {"fitness": 1.0, "program": "(float.abs no.such)"},
         "run.jsonl:2: unknown instruction: no.such"),
        (_bad_checkpoint_line, {"fitness": None, "program": "(0.0 vector.wrand)"},
         'run.jsonl:2: "fitness" is not a JSON number'),
        (_bad_pool_entry, {"programs": [{"program": "(0.0 vector.wrand)", "fitness": "0.5"}]},
         'pool.json entry 0: "fitness" is not a JSON number'),
        (_bad_pool, {"programs": [{"program": "(0.0 vector.wrand)", "source": [1]}]},
         'pool.json entry 0: "source" is not a JSON string'),
        (_bad_checkpoint_line, {"fitness": float("nan"), "program": "(0.0 vector.wrand)"},
         'run.jsonl:2: "fitness" is NaN'),
        (_bad_pool, {"programs": [{"program": "(0.0 vector.wrand)", "fitness": float("nan")}]},
         'pool.json entry 0: "fitness" is NaN'),
        (_bad_checkpoint_line, {"fitness": float("inf"), "program": "(0.0 vector.wrand)"},
         'run.jsonl:2: "fitness" is Infinity'),
        (_bad_pool, {"programs": [{"program": "(0.0 vector.wrand)", "fitness": float("-inf")}]},
         'pool.json entry 0: "fitness" is -Infinity'),
    ],
    ids=[
        "pool-without-programs", "pool-list", "programs-not-list", "pool-entry-without-program",
        "checkpoint-without-program", "pool-entry-unparseable", "pool-entry-not-text",
        "checkpoint-unparseable", "checkpoint-fitness-null", "pool-entry-fitness-text",
        "pool-entry-source-not-text", "checkpoint-fitness-nan", "pool-entry-fitness-nan",
        "checkpoint-fitness-inf", "pool-entry-fitness-neg-inf",
    ],
)
def test_malformed_pool_or_checkpoint_fails_cleanly(tmp_path, capsys, build, payload, message):
    argv = build(tmp_path, payload)
    assert run_cli(*argv, "--dim", "2", "--moves", "3", "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out").exists()


def _usage_over(*paths):
    return ["analyze", "usage", "--checkpoints", *map(str, paths)]


def _malformed_checkpoints(tmp_path):
    # Two groups whose second holds a malformed line, so reading group by
    # group while writing would leave the first group's table behind.
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "gen_0000.jsonl").write_text('{"fitness": 1.0}\n')
    return _write_checkpoints(tmp_path / "good"), bad


def _empty_checkpoints(tmp_path):
    directory = tmp_path / "gens"
    directory.mkdir()
    (directory / "gen_0000.jsonl").write_text("")
    return directory


def _run_on_descriptor(tmp_path, raw):
    return ["run", "--program", ORIGIN, "--problem", write_json(tmp_path / "problem.json", raw)]


def _not_json(path):
    path.write_text("x\n")
    return path


def _not_utf8(path):
    path.write_bytes(b"\xff\n")
    return path


def _two_programs(tmp_path):
    # A good program file, then one that does not parse.
    (tmp_path / "good.txt").write_text(ORIGIN + "\n")
    (tmp_path / "bad.txt").write_text("(0.0 vector.wrand\n")
    return [str(tmp_path / "good.txt"), str(tmp_path / "bad.txt")]


def _evolve_with(tmp_path, **config):
    return ["evolve", "--config", write_json(tmp_path / "config.json", {"function": "F1", "D": 2, **config})]


ORIGIN = "(0.0 vector.wrand)"

# One bad input per case: the argv without --dim, --moves and --out, built
# in a temporary directory, and a part of the one error line it must print.
BAD_INPUTS = {
    "run-unknown-function": (lambda d: ["run", "--program", ORIGIN, "--function", "F99"], "F99"),
    "hybrid-unknown-function": (
        lambda d: ["hybrid", "--dir", str(_write_checkpoints(d)), "--function", "F99"], "F99"),
    "evolve-unknown-function": (lambda d: _evolve_with(d, function="F99"), "F99"),
    "usage-unknown-function": (
        lambda d: [*_usage_over(_write_checkpoints(d)), "--mode", "dynamic", "--function", "F99"], "F99"),
    "simplify-unknown-function": (
        lambda d: ["analyze", "simplify", "--program", ORIGIN, "--function", "F99"], "F99"),
    "reevaluate-unknown-function": (
        lambda d: ["analyze", "reevaluate", "--programs", ORIGIN, "--functions", "F1", "F99"], "F99"),
    "run-missing-program": (
        lambda d: ["run", "--program", str(d / "missing.txt"), "--function", "F1"], "missing.txt"),
    "simplify-missing-program": (
        lambda d: ["analyze", "simplify", "--program", str(d / "missing.txt"), "--function", "F1"],
        "missing.txt"),
    "reevaluate-missing-program": (
        lambda d: ["analyze", "reevaluate", "--programs", ORIGIN, str(d / "missing.txt"), "--functions", "F1"],
        "missing.txt"),
    "run-empty-program": (lambda d: ["run", "--program", "", "--function", "F1"], "program file not found: ''"),
    "simplify-empty-program": (
        lambda d: ["analyze", "simplify", "--program", "", "--function", "F1"], "program file not found: ''"),
    "reevaluate-empty-program": (
        lambda d: ["analyze", "reevaluate", "--programs", "", "--functions", "F1"], "program file not found: ''"),
    "reevaluate-function-twice": (
        lambda d: ["analyze", "reevaluate", "--programs", ORIGIN, "--functions", "F1", "F9", "F1"],
        "function given twice: F1"),
    "hybrid-missing-pool": (
        lambda d: ["hybrid", "--pool", str(d / "missing.json"), "--function", "F1"], "missing.json"),
    "reevaluate-missing-pool": (
        lambda d: ["analyze", "reevaluate", "--pools", str(d / "missing.json"), "--functions", "F1"],
        "missing.json"),
    "hybrid-missing-dir": (
        lambda d: ["hybrid", "--dir", str(d / "missing"), "--function", "F1"], "no checkpoint files in"),
    "hybrid-empty-dir": (lambda d: ["hybrid", "--dir", str(d), "--function", "F1"], "no checkpoint files in"),
    "usage-missing-path": (lambda d: _usage_over(d / "missing"), "checkpoint path not found"),
    "usage-empty-dir": (lambda d: _usage_over(d), "no checkpoint files in"),
    "hybrid-malformed-checkpoint": (
        lambda d: ["hybrid", "--dir", str(_malformed_checkpoints(d)[1]), "--function", "F1"],
        'gen_0000.jsonl:1 is not a JSON object with "program"'),
    "usage-malformed-checkpoint": (
        lambda d: _usage_over(*_malformed_checkpoints(d)),
        'gen_0000.jsonl:1 is not a JSON object with "program"'),
    "usage-empty-checkpoint": (
        lambda d: _usage_over(_empty_checkpoints(d)), "checkpoint group gens holds no programs"),
    "hybrid-empty-checkpoint": (
        lambda d: ["hybrid", "--dir", str(_empty_checkpoints(d)), "--function", "F1"], "pool must not be empty"),
    "hybrid-pool-top-0": (
        lambda d: ["hybrid", "--pool", write_json(d / "pool.json", {"programs": [{"program": ORIGIN}]}),
                   "--top", "0", "--function", "F1"],
        "not both"),
    "evolve-unknown-instruction": (
        lambda d: _evolve_with(d, instructions=["vector.teleport"]), "unknown instructions"),
    "evolve-rates-off-one": (
        lambda d: _evolve_with(d, rates={"crossover": 0.5, "mutation": 0.4, "reproduction": 0.2}),
        "operator rates must sum to 1"),
    "evolve-rate-out-of-range": (
        lambda d: _evolve_with(d, rates={"crossover": 1.5, "mutation": -0.5, "reproduction": 0}),
        "operator rates must each lie in [0, 1], got (1.5, -0.5, 0.0)"),
    "evolve-transforms-misspelt": (
        lambda d: _evolve_with(d, transforms="randon"), "transforms must be one of random, identity, not 'randon'"),
    "evolve-instructions-empty": (
        lambda d: _evolve_with(d, instructions=[]), "an instruction set needs at least one instruction"),
    "run-execution-limit-0": (
        lambda d: ["run", "--program", ORIGIN, "--function", "F1", "--execution-limit", "0"],
        "execution limit must be >= 1"),
    "evolve-scale-one-value": (lambda d: _evolve_with(d, transform_ranges={"scale": [1]}), "transform scale"),
    "evolve-scale-zero": (
        lambda d: _evolve_with(d, transform_ranges={"scale": [0, 0], "flip_prob": 3}), "transform scale"),
    "evolve-flip-prob-3": (lambda d: _evolve_with(d, transform_ranges={"flip_prob": 3}), "transform flip_prob"),
    "evolve-translate-frac-neg": (
        lambda d: _evolve_with(d, transform_ranges={"translate_frac": -1}), "transform translate_frac"),
    "run-repeats-0": (
        lambda d: ["run", "--program", ORIGIN, "--function", "F1", "--repeats", "0"], "repeats must be >= 1"),
    "hybrid-repeats-0": (
        lambda d: ["hybrid", "--dir", str(_write_checkpoints(d)), "--function", "F1", "--repeats", "0"],
        "repeats must be >= 1"),
    "simplify-repeats-0": (
        lambda d: ["analyze", "simplify", "--program", ORIGIN, "--function", "F1", "--repeats", "0"],
        "repeats must be >= 1"),
    "evolve-repeats-0": (lambda d: _evolve_with(d, repeats=0), "repeats must be >= 1"),
    "evolve-jobs-null": (lambda d: _evolve_with(d, jobs=None), "evolve: jobs must be an integer, not null"),
    "evolve-pop-null": (lambda d: _evolve_with(d, pop=None), "evolve: pop must be an integer, not null"),
    "evolve-flip-prob-null": (
        lambda d: _evolve_with(d, transform_ranges={"flip_prob": None}),
        "evolve: transform_ranges.flip_prob must be a number, not null"),
    "evolve-translate-frac-huge": (
        lambda d: _evolve_with(d, transform_ranges={"translate_frac": 10**400}),
        "evolve: transform_ranges.translate_frac must be a number, not 1000"),
    "evolve-pop-4.7": (lambda d: _evolve_with(d, pop=4.7), "evolve: pop must be an integer, not 4.7"),
    "evolve-instructions-string": (
        lambda d: _evolve_with(d, instructions="float.abs"),
        'evolve: instructions must be a list of strings, not "float.abs"'),
    "run-seed-neg": (lambda d: ["run", "--program", ORIGIN, "--function", "F1", "--seed", "-1"], "seed must be >= 0"),
    "reevaluate-seed-neg": (
        lambda d: ["analyze", "reevaluate", "--programs", ORIGIN, "--functions", "F1", "--seed", "-5"],
        "seed must be >= 0"),
    "evolve-seed-neg": (lambda d: _evolve_with(d, seed=-2), "seed must be >= 0"),
    "run-descriptor-list": (lambda d: _run_on_descriptor(d, ["F1", 2]), "problem.json must hold a JSON object"),
    "run-descriptor-dim-2.5": (
        lambda d: _run_on_descriptor(d, {"id": "F1", "D": 2.5}), "descriptor D must be an integer, not 2.5"),
    "run-descriptor-seed-null": (
        lambda d: _run_on_descriptor(d, {"id": "F1", "D": 2, "seed": None}), "descriptor seed must be an integer"),
    "run-descriptor-seed-neg": (
        lambda d: _run_on_descriptor(d, {"id": "F1", "D": 2, "seed": -1}), "function seed must be >= 0"),
    "run-problem-seed-neg": (
        lambda d: ["run", "--program", ORIGIN, "--function", "F1", "--problem-seed", "-1"],
        "function seed must be >= 0"),
    "run-trajectory-missing-dir": (
        lambda d: ["run", "--program", ORIGIN, "--function", "F1", "--trajectory", str(d / "missing" / "t.csv")],
        "missing is not a directory"),
    "run-trajectory-is-dir": (
        lambda d: ["run", "--program", ORIGIN, "--function", "F1", "--trajectory", str(d)],
        "names a directory"),
    "hybrid-trajectory-missing-dir": (
        lambda d: ["hybrid", "--dir", str(_write_checkpoints(d)), "--function", "F1",
                   "--trajectory", str(d / "missing" / "t.csv")],
        "missing is not a directory"),
    "evolve-config-not-json": (
        lambda d: ["evolve", "--config", str(_not_json(d / "config.json"))],
        "config.json: Expecting value: line 1 column 1"),
    "run-descriptor-not-json": (
        lambda d: ["run", "--program", ORIGIN, "--problem", str(_not_json(d / "problem.json"))],
        "problem.json: Expecting value: line 1 column 1"),
    "hybrid-pool-not-json": (
        lambda d: ["hybrid", "--pool", str(_not_json(d / "pool.json")), "--function", "F1"],
        "pool.json: Expecting value: line 1 column 1"),
    "usage-checkpoint-not-json": (
        lambda d: _usage_over(_write_checkpoints(d), _not_json(d / "gen_0000.jsonl")),
        "gen_0000.jsonl:1: Expecting value: line 1 column 1"),
    "evolve-config-not-utf8": (
        lambda d: ["evolve", "--config", str(_not_utf8(d / "config.json"))],
        "config.json: 'utf-8' codec can't decode byte 0xff"),
    "run-descriptor-not-utf8": (
        lambda d: ["run", "--program", ORIGIN, "--problem", str(_not_utf8(d / "problem.json"))],
        "problem.json: 'utf-8' codec can't decode byte 0xff"),
    "hybrid-pool-not-utf8": (
        lambda d: ["hybrid", "--pool", str(_not_utf8(d / "pool.json")), "--function", "F1"],
        "pool.json: 'utf-8' codec can't decode byte 0xff"),
    "usage-checkpoint-not-utf8": (
        lambda d: _usage_over(_write_checkpoints(d), _not_utf8(d / "gen_0000.jsonl")),
        "gen_0000.jsonl: 'utf-8' codec can't decode byte 0xff"),
    "run-program-not-utf8": (
        lambda d: ["run", "--program", str(_not_utf8(d / "program.txt")), "--function", "F1"],
        "program.txt: 'utf-8' codec can't decode byte 0xff"),
    "reevaluate-second-program-unparsed": (
        lambda d: ["analyze", "reevaluate", "--programs", *_two_programs(d), "--functions", "F1"],
        "bad.txt: unbalanced parentheses: missing ')'"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_fails_before_out_is_made(tmp_path, capsys, case):
    build, message = BAD_INPUTS[case]
    work = tmp_path / "work"
    work.mkdir()
    out = tmp_path / "out"
    assert run_cli(*build(work), "--dim", "2", "--moves", "3", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["hybrid", "analyze-usage"])
def test_replayed_unknown_mode_fails_before_out_is_made(tmp_path, capsys, command):
    # argparse refuses an unknown --mode; a replayed manifest is checked by
    # the command itself, before --out is made.
    checkpoints = str(_write_checkpoints(tmp_path))
    if command == "hybrid":
        params = {"dir": checkpoints, "top": 1, "function": "F1", "D": 2}
    else:
        params = {"checkpoints": [checkpoints]}
    payload = {"command": command, "params": {**params, "moves": 3, "mode": "bogus"}}
    out = tmp_path / "out"
    assert run_cli("replay", "--manifest", write_json(tmp_path / "manifest.json", payload), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: unknown {command} mode: 'bogus'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, params, message",
    [
        ("run", {"program": [1], "function": "F1"}, "run: program must be a string, not [1]"),
        ("run", {"program": ORIGIN, "function": "F1", "trajectory": [1]},
         "run: trajectory must be a string, not [1]"),
        ("analyze-reevaluate", {"programs": [ORIGIN, 5], "functions": ["F1"]},
         'analyze-reevaluate: programs must be a list of strings, not ["(0.0 vector.wrand)", 5]'),
        ("analyze-simplify", {"program": ORIGIN, "function": "F1", "tolerance": None},
         "analyze-simplify: tolerance must be a number, not null"),
        ("run", {"program": ORIGIN, "function": "F1", "transforms": "randon"},
         "transforms must be one of random, identity, not 'randon'"),
    ],
    ids=[
        "run-program-list", "run-trajectory-list", "reevaluate-program-int", "simplify-tolerance-null",
        "run-transforms-misspelt",
    ],
)
def test_replayed_value_of_wrong_type_fails_before_out_is_made(tmp_path, capsys, command, params, message):
    # Flags are typed by argparse; a manifest may hold any JSON value.
    payload = {"command": command, "params": {"D": 2, "moves": 3, **params}}
    out = tmp_path / "out"
    assert run_cli("replay", "--manifest", write_json(tmp_path / "manifest.json", payload), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


# The wrong values for a key of each JSON type. An int key refuses a
# fraction and a boolean, a float key a boolean and a numeric string.
WRONG_VALUES = {int: [2.5, True], float: [True, "1"], str: [5], list: ["F1"], dict: [5]}
# Elements of the wrong type, for a list of strings and a list of numbers.
WRONG_ELEMENTS = {str: [5], float: ["1"]}
# The one key that has neither a default nor a flag: an instruction list.
UNFLAGGED = {"instructions": list}


def _wrong_values(key, default):
    """(name, value) pairs of the wrong JSON type for ``key``: not the type
    of ``default`` or, where that is null, of the key's flag. The name of a
    key inside an object is dotted."""
    if default is None and key not in FLAGS:
        kind, element = UNFLAGGED[key], str
    elif default is None:
        settings = FLAGS[key][1]
        kind, element = list if "nargs" in settings else settings.get("type", str), str
    else:
        kind = type(default)
        element = type(default[0]) if kind is list and default else str
        yield key, None
    yield from ((key, value) for value in WRONG_VALUES[kind])
    if kind is list:
        yield from ((key, [value]) for value in WRONG_ELEMENTS[element])
    if kind is dict:
        for sub, sub_default in default.items():
            yield from ((f"{key}.{name}", value) for name, value in _wrong_values(sub, sub_default))


def _tag(value):
    if type(value) is list:
        return f"list-of-{_tag(value[0])}"
    return f"text-{value}" if type(value) is str else json.dumps(value)


def _wrong_type_cases():
    for command, (defaults, _) in COMMANDS.items():
        for key, default in defaults.items():
            for name, value in _wrong_values(key, default):
                outer, _, inner = name.partition(".")
                params = {outer: {inner: value} if inner else value}
                yield pytest.param("replay", command, params, name, id=f"{command}-{name}-{_tag(value)}")
    # Values that a cast would truncate, or that a loop would read letter by
    # letter, without a word: in a replayed manifest or an evolve config.
    examples = [
        ("replay", "run", {"D": 2.5, "swarm": 1.9}, "D"),
        ("config", "evolve", {"moves": True}, "moves"),
        ("config", "evolve", {"pop": 4.7}, "pop"),
        ("config", "evolve", {"instructions": "float.abs"}, "instructions"),
        ("replay", "analyze-reevaluate", {"functions": "F1"}, "functions"),
    ]
    for via, command, params, key in examples:
        yield pytest.param(via, command, params, key, id=f"example-{via}-{command}-{key}")


@pytest.mark.parametrize("via, command, params, key", list(_wrong_type_cases()))
def test_value_of_wrong_type_fails_before_out_is_made(tmp_path, capsys, via, command, params, key):
    out = tmp_path / "out"
    if via == "config":
        config = write_json(tmp_path / "config.json", {"function": "F1", "D": 2, **params})
        code = run_cli(command, "--config", config, "--out", str(out))
    else:
        manifest = write_json(tmp_path / "manifest.json", {"command": command, "params": params})
        code = run_cli("replay", "--manifest", manifest, "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: {key} must be ") and err.count("\n") == 1
    assert not out.exists()


def test_replayed_manifest_that_is_not_json_fails_before_out_is_made(tmp_path, capsys):
    manifest = _not_json(tmp_path / "manifest.json")
    out = tmp_path / "out"
    assert run_cli("replay", "--manifest", str(manifest), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {manifest}: Expecting value: line 1 column 1 (char 0)\n"
    assert not out.exists()


def test_problem_descriptor_is_read_once(tmp_path, monkeypatch):
    reads = []

    def counted(raw):
        reads.append(raw)
        return problem_family_from_descriptor(raw)

    monkeypatch.setattr("pushopt.cli.problem_family_from_descriptor", counted)
    descriptor = write_json(tmp_path / "problem.json", {"id": "F1", "D": 2, "transform": "identity"})
    argv = ["--program", ORIGIN, "--problem", descriptor, "--moves", "3", "--repeats", "2"]
    assert run_cli("run", *argv, "--out", str(tmp_path / "run")) == 0
    assert run_cli("analyze", "simplify", *argv, "--out", str(tmp_path / "simplify")) == 0
    assert len(reads) == 2


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("run", ["--function", "F9"], "--function"),
        ("run", ["--dim", "3"], "--dim"),
        ("run", ["--transforms", "random"], "--transforms"),
        ("run", ["--problem-seed", "2"], "--problem-seed"),
        ("run", ["--function", "F9", "--dim", "3", "--transforms", "random"], "--function, --dim, --transforms"),
        ("analyze simplify", ["--transforms", "identity"], "--transforms"),
    ],
    ids=["run-function", "run-dim", "run-transforms", "run-problem-seed", "run-three-flags", "simplify-transforms"],
)
def test_problem_file_excludes_the_problem_flags(tmp_path, capsys, command, flags, named):
    descriptor = write_json(tmp_path / "problem.json", {"id": "F1", "D": 2})
    out = tmp_path / "out"
    argv = [*command.split(), "--program", ORIGIN, "--problem", descriptor, *flags, "--moves", "3"]
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: --problem excludes {named}\n"
    assert not out.exists()


def test_problem_file_takes_flags_at_the_command_default(tmp_path):
    descriptor = write_json(tmp_path / "problem.json", {"id": "F1", "D": 2})
    argv = ["--program", ORIGIN, "--problem", descriptor, "--problem-seed", "0", "--moves", "3"]
    assert run_cli("run", *argv, "--transforms", "identity", "--out", str(tmp_path / "run")) == 0
    assert run_cli("analyze", "simplify", *argv, "--transforms", "random", "--out", str(tmp_path / "simplify")) == 0


def test_replayed_problem_file_with_problem_keys_fails_before_out_is_made(tmp_path, capsys):
    descriptor = write_json(tmp_path / "problem.json", {"id": "F1", "D": 2})
    params = {"program": ORIGIN, "problem_file": descriptor, "function": "F9", "D": 3, "moves": 3}
    manifest = write_json(tmp_path / "manifest.json", {"command": "run", "params": params})
    out = tmp_path / "out"
    assert run_cli("replay", "--manifest", manifest, "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: --problem excludes --function, --dim\n"
    assert not out.exists()
