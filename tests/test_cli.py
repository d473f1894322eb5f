import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from pushopt.cli import EVOLVE_DEFAULTS, CliError, main, resolve_params
from pushopt.problems import BenchmarkFunction, register_function

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
    pool = json.loads((out / "pool.json").read_text())
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
    ],
    ids=["lists-shorter-than-D", "zero-scale", "flip-5"],
)
def test_run_with_bad_explicit_transform_fails_cleanly(tmp_path, capsys, transform):
    descriptor = write_json(tmp_path / "problem.json", {"id": "F1", "D": 3, "transform": transform})
    out = tmp_path / "out"
    code = run_cli("run", "--program", "(0.0 vector.wrand)", "--problem", descriptor, "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: transform ")
    assert not (out / "results.csv").exists()
    assert not (out / "manifest.json").exists()


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
    assert not (out / "results.csv").exists()
    assert not (out / "manifest.json").exists()


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
    ],
    ids=["unknown-command", "no-command", "no-params", "params-list", "config-list", "rates-number"],
)
def test_bad_manifest_or_config_fails_cleanly(tmp_path, capsys, command, payload):
    path = write_json(tmp_path / "input.json", payload)
    flag = "--manifest" if command == "replay" else "--config"
    assert run_cli(command, flag, path, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("error: ")


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
    assert not (tmp_path / "out" / "usage.csv").exists()


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
    ],
    ids=["reevaluate-runs-0", "reevaluate-jobs-0", "reevaluate-jobs-neg", "evolve-tournament-0",
         "evolve-jobs-0", "evolve-jobs-neg", "evolve-gens-neg", "evolve-size-limit-0"],
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
    assert capsys.readouterr().err.startswith("error: ")


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
    ],
    ids=[
        "pool-without-programs", "pool-list", "programs-not-list", "pool-entry-without-program",
        "checkpoint-without-program", "pool-entry-unparseable", "pool-entry-not-text",
        "checkpoint-unparseable",
    ],
)
def test_malformed_pool_or_checkpoint_fails_cleanly(tmp_path, capsys, build, payload, message):
    argv = build(tmp_path, payload)
    assert run_cli(*argv, "--dim", "2", "--moves", "3", "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
