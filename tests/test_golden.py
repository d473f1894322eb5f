"""Golden result digests: one small CLI call per command, compared by the
sha256 of every file it writes except ``manifest.json`` (which holds paths).

numpy's vectorised ``sin`` and ``cos`` may differ in the last bit between
the SIMD targets a build dispatches to, so each recorded set is keyed by the
numpy version and those targets. A machine whose signature has no set fails
with a message naming the signature; a maintainer then checks the results by
other means and records a set for it with::

    python tests/test_golden.py --record

Run without arguments, the script prints this machine's signature.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pushopt.cli import main

from conftest import EVOLVED_OPTIMISERS

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
FUNCTIONS = ["F1", "F9", "F12", "F13", "F14"]


def signature() -> str:
    """numpy's version, its SIMD baseline and the dispatch targets this CPU
    supports, as ``np.show_runtime()`` reports them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy-{np.__version__}-{'+'.join(umath.__cpu_baseline__)}-{'+'.join(found)}"


def _write_inputs(in_dir: Path) -> dict:
    """The reference programs as files, a checkpoint and a pool manifest of
    them, an evolve config and a problem descriptor with an explicit
    transform; returns their paths."""
    in_dir.mkdir(parents=True)
    programs = []
    for fid, text in EVOLVED_OPTIMISERS.items():
        path = in_dir / f"ref_{fid}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        programs.append(str(path))
    records = [{"program": text, "fitness": float(i)} for i, text in enumerate(EVOLVED_OPTIMISERS.values())]
    checkpoint = in_dir / "refs.jsonl"
    checkpoint.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    pool = in_dir / "pool.json"
    entries = [{**r, "source": f"ref_{fid}"} for r, fid in zip(records, EVOLVED_OPTIMISERS)]
    pool.write_text(json.dumps({"programs": entries}), encoding="utf-8")
    config = in_dir / "evolve.json"
    config.write_text(json.dumps(
        {"function": "F1", "D": 2, "swarm": 2, "moves": 20, "pop": 10, "gens": 2, "repeats": 2, "seed": 11}
    ), encoding="utf-8")
    descriptor = in_dir / "problem.json"
    descriptor.write_text(json.dumps({
        "id": "F9", "D": 3, "seed": 4,
        "transform": {"translation": [0.5, -1.0, 0.25], "scale": [1.5, 0.75, 1.0], "flip": [1, -1, 1]},
    }), encoding="utf-8")
    return {"programs": programs, "checkpoint": str(checkpoint), "pool": str(pool), "config": str(config),
            "descriptor": str(descriptor)}


def _cases(inputs: dict) -> dict:
    """Case name -> argv without ``--out``; each command once, evolve and
    reevaluate at one and two workers, ``run`` also with its default
    identity transforms and with a descriptor's explicit transform, and
    ``hybrid`` also in ``per_member`` mode."""
    reevaluate = ["analyze", "reevaluate", "--programs", *inputs["programs"], "--pools", inputs["pool"],
                  "--functions", *FUNCTIONS, "--dim", "3", "--runs", "2", "--swarm", "2",
                  "--moves", "30", "--seed", "9", "--problem-seed", "9"]
    return {
        "evolve_jobs1": ["evolve", "--config", inputs["config"], "--jobs", "1"],
        "evolve_jobs2": ["evolve", "--config", inputs["config"], "--jobs", "2"],
        "run": ["run", "--program", inputs["programs"][1], "--function", "F9", "--dim", "4",
                "--swarm", "3", "--moves", "40", "--repeats", "2", "--transforms", "random",
                "--seed", "5", "--trajectory", "{out}/trajectory.csv"],
        "run_identity": ["run", "--program", inputs["programs"][0], "--function", "F12", "--dim", "3",
                         "--swarm", "2", "--moves", "30", "--repeats", "2", "--seed", "3"],
        "run_descriptor": ["run", "--program", inputs["programs"][1], "--problem", inputs["descriptor"],
                           "--swarm", "2", "--moves", "30", "--repeats", "2", "--seed", "4"],
        "hybrid": ["hybrid", "--pool", inputs["pool"], "--function", "F14", "--dim", "5", "--swarm", "4",
                   "--moves", "30", "--repeats", "2", "--transforms", "random", "--seed", "6"],
        "hybrid_per_member": ["hybrid", "--pool", inputs["pool"], "--mode", "per_member", "--function", "F9",
                              "--dim", "3", "--swarm", "4", "--moves", "30", "--repeats", "2",
                              "--transforms", "random", "--seed", "10"],
        "usage_static": ["analyze", "usage", "--checkpoints", inputs["checkpoint"]],
        "usage_dynamic": ["analyze", "usage", "--checkpoints", inputs["checkpoint"], "--mode", "dynamic",
                          "--function", "F12", "--dim", "3", "--swarm", "2", "--moves", "20", "--seed", "7"],
        "simplify": ["analyze", "simplify", "--program", inputs["programs"][3], "--function", "F13",
                     "--dim", "2", "--swarm", "2", "--moves", "20", "--repeats", "2", "--seed", "8"],
        "reevaluate_jobs1": reevaluate + ["--jobs", "1"],
        "reevaluate_jobs2": reevaluate + ["--jobs", "2"],
    }


def _digests(out_dir: Path) -> dict:
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def run_cases(work_dir: Path) -> dict:
    """Run every case under ``work_dir``; case name -> {file: sha256}."""
    inputs = _write_inputs(work_dir / "in")
    result = {}
    for name, argv in _cases(inputs).items():
        out_dir = work_dir / name
        argv = [arg.replace("{out}", str(out_dir)) for arg in argv]
        assert main(argv + ["--out", str(out_dir)]) == 0, name
        result[name] = _digests(out_dir)
    return result


def test_result_files_match_golden_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    sig = signature()
    if sig not in recorded:
        pytest.fail(
            f"no golden digests for signature {sig} (recorded: {', '.join(sorted(recorded))}); "
            "record a set with `python tests/test_golden.py --record` once the results are checked"
        )
    expected = recorded[sig]
    actual = run_cases(tmp_path)
    changed = sorted(
        f"{case}/{name}"
        for case in expected.keys() | actual.keys()
        for name in expected.get(case, {}).keys() | actual.get(case, {}).keys()
        if expected.get(case, {}).get(name) != actual.get(case, {}).get(name)
    )
    assert not changed, f"result files differ from the golden digests of {sig}: {', '.join(changed)}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] == ["--record"]:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        with tempfile.TemporaryDirectory() as tmp:
            recorded[signature()] = run_cases(Path(tmp))
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(signature())
