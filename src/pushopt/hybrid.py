"""Heterogeneous swarms: each member runs a randomly drawn pool program at
each iteration while keeping its own stack state across program switches."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .harness import FixedSource, RunConfig, RunResult, run_with_source
from .problems import Problem
from .push import Program, parse_program, print_program
from .rng import stream

MODES = ("per_move", "per_member")  # how members draw programs; the first is the default


@dataclass(frozen=True)
class PoolEntry:
    program: Program
    fitness: float
    source: str


@dataclass(frozen=True)
class Pool:
    """A non-empty, fitness-ordered collection of evolved programs."""

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise ValueError("pool must not be empty")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def programs(self) -> tuple:
        return tuple(entry.program for entry in self.entries)


class PoolSource:
    """Uniform program selection from a pool, one program per member.

    Selection draws come from their own random stream so that pool size
    never perturbs the point-sampling randomness of the underlying run; a
    pool of one therefore reproduces the homogeneous harness exactly.

    ``select(move)`` returns a fresh block of programs in member order, from
    one ``rng.integers(len(pool), size=swarm_size)`` call. numpy fills a
    block with the same values as that many scalar draws and leaves the
    stream where they would.
    """

    def __init__(self, pool: Pool, rng, swarm_size: int):
        self.pool = pool
        self.rng = rng
        self.swarm_size = swarm_size

    def select(self, move: int) -> list:
        entries = self.pool.entries
        picks = self.rng.integers(len(entries), size=self.swarm_size)
        return [entries[i].program for i in picks.tolist()]


def run_hybrid(pool: Pool, problem: Problem, config: RunConfig, mode: str = MODES[0]) -> RunResult:
    """Run a heterogeneous swarm over ``pool``; behaves exactly like the
    homogeneous harness except for which program each member executes.
    ``per_move`` draws a block every move; ``per_member`` draws one block
    before the run and runs it as a ``FixedSource``, so each member keeps
    one program."""
    if mode not in MODES:
        raise ValueError(f"unknown hybrid mode: {mode}")
    source = PoolSource(pool, stream(config.seed, "select"), config.swarm_size)
    if mode == "per_member":
        source = FixedSource(source.select(0))
    return run_with_source(source, problem, config)


# ---------------------------------------------------------------------------
# Pool construction from checkpoints and manifests
# ---------------------------------------------------------------------------


def _record(record, where: str, keys: tuple) -> dict:
    """``record`` if it is a JSON object holding ``keys``; otherwise a
    ValueError that names ``where``."""
    if not isinstance(record, dict) or not all(key in record for key in keys):
        wanted = " and ".join(f'"{key}"' for key in keys)
        raise ValueError(f"{where} is not a JSON object with {wanted}")
    return record


def _program(record: dict, where: str) -> Program:
    """The program of ``record``; a ValueError that names ``where`` if its
    text does not parse."""
    text = record["program"]
    if not isinstance(text, str):
        raise ValueError(f'{where}: "program" is not a JSON string')
    try:
        return parse_program(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _fitness(value, where: str) -> float:
    """``value`` as a fitness; a ValueError that names ``where`` if it is
    not a finite JSON number. ``json`` reads ``NaN`` and ``Infinity``, but
    ``build_pool``'s order cannot place NaN, and neither is JSON that
    ``write_pool_manifest`` could write back."""
    if type(value) not in (int, float):
        raise ValueError(f'{where}: "fitness" is not a JSON number')
    if not math.isfinite(value):
        raise ValueError(f'{where}: "fitness" is {json.dumps(value)}')
    return float(value)


def _parse(text: str, where: str):
    """``text`` as JSON; a ValueError that names ``where`` if it is not."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _read(path, where: str) -> str:
    """The text of ``path``; a ValueError that names ``where`` if it is not
    UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{where}: {exc}") from None


def write_checkpoint(path, population, fitnesses) -> None:
    """Write a JSONL checkpoint: one ``{"fitness", "program"}`` object per
    program, in population order."""
    with open(path, "w", encoding="utf-8") as fh:
        for program, fit in zip(population, fitnesses):
            fh.write(json.dumps({"fitness": fit, "program": print_program(program)}) + "\n")


def read_checkpoint(path) -> list:
    """Read (fitness, program text) entries from a JSONL checkpoint file."""
    entries = []
    # Text mode reads every line ending as "\n".
    for line_no, line in enumerate(_read(path, f"checkpoint {path}").split("\n")):
        line = line.strip()
        if not line:
            continue
        source = f"{path}:{line_no + 1}"
        where = f"checkpoint line {source}"
        record = _record(_parse(line, where), where, ("program", "fitness"))
        entries.append(
            PoolEntry(
                program=_program(record, where),
                fitness=_fitness(record["fitness"], where),
                source=source,
            )
        )
    return entries


def build_pool(checkpoints, top_n: int = None) -> Pool:
    """Assemble a pool from checkpoint files.

    All entries across all checkpoints are candidates; they are ordered
    deterministically by (fitness, source) and the lowest-fitness ``top_n``
    are kept (all of them when ``top_n`` is None).
    """
    candidates = []
    for checkpoint in checkpoints:
        candidates.extend(read_checkpoint(checkpoint))
    candidates.sort(key=lambda e: (e.fitness, e.source))
    if top_n is not None:
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        candidates = candidates[:top_n]
    return Pool(tuple(candidates))


def write_pool_manifest(pool: Pool, path) -> None:
    payload = {
        "programs": [
            {"program": print_program(e.program), "fitness": e.fitness, "source": e.source}
            for e in pool.entries
        ]
    }
    # allow_nan=False: a non-finite fitness raises before the file is opened.
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_pool_manifest(path) -> Pool:
    manifest = f"pool manifest {path}"
    records = _record(_parse(_read(path, manifest), manifest), manifest, ("programs",))["programs"]
    if not isinstance(records, list):
        raise ValueError(f'{manifest}: "programs" is not a JSON list')
    entries = []
    for i, record in enumerate(records):
        where = f"{manifest} entry {i}"
        record = _record(record, where, ("program",))
        source = record.get("source", f"{path}:{i}")
        if not isinstance(source, str):
            raise ValueError(f'{where}: "source" is not a JSON string')
        entries.append(
            PoolEntry(
                program=_program(record, where),
                fitness=_fitness(record.get("fitness", 0.0), where),
                source=source,
            )
        )
    return Pool(tuple(entries))
