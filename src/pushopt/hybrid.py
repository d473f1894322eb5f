"""Heterogeneous swarms: each member runs a randomly drawn pool program at
each iteration while keeping its own stack state across program switches."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .harness import RunConfig, RunResult, run_with_source
from .problems import Problem
from .push import Program, parse_program, print_program
from .rng import stream


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
    """Per-(member, move) uniform program selection from a pool.

    Selection draws come from their own random stream so that pool size
    never perturbs the point-sampling randomness of the underlying run; a
    pool of one therefore reproduces the homogeneous harness exactly. The
    ``per_member`` mode instead assigns one persistent program per member at
    initialisation.

    Draws are made a block at a time: one ``rng.integers(len(pool),
    size=swarm_size)`` call per move, with the ``swarm_size`` given to
    ``on_init`` (1 before it is called). numpy fills a block with the same
    values as that many scalar draws and leaves the stream where they
    would, so the n-th ``select`` returns the program of the n-th scalar
    draw, whatever the swarm size.
    """

    def __init__(self, pool: Pool, rng, mode: str = "per_move"):
        if mode not in ("per_move", "per_member"):
            raise ValueError(f"unknown hybrid mode: {mode}")
        self.pool = pool
        self.rng = rng
        self.mode = mode
        self.assignments = None
        self._block_size = 1
        self._pending = iter(())

    def on_init(self, swarm_size: int) -> None:
        self._block_size = swarm_size
        if self.mode == "per_member":
            self.assignments = self._draw_block()

    def _draw_block(self) -> list:
        entries = self.pool.entries
        picks = self.rng.integers(len(entries), size=self._block_size)
        return [entries[i].program for i in picks.tolist()]

    def select(self, member: int, move: int) -> Program:
        if self.mode == "per_member":
            return self.assignments[member]
        program = next(self._pending, None)
        if program is None:
            self._pending = iter(self._draw_block())
            program = next(self._pending)
        return program


def run_hybrid(pool: Pool, problem: Problem, config: RunConfig, mode: str = "per_move") -> RunResult:
    """Run a heterogeneous swarm over ``pool``; behaves exactly like the
    homogeneous harness except for which program each member executes."""
    source = PoolSource(pool, stream(config.seed, "select"), mode)
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


def read_checkpoint(path) -> list:
    """Read (fitness, program text) entries from a JSONL checkpoint file."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            source = f"{path}:{line_no + 1}"
            where = f"checkpoint line {source}"
            record = _record(json.loads(line), where, ("program", "fitness"))
            entries.append(
                PoolEntry(
                    program=_program(record, where),
                    fitness=float(record["fitness"]),
                    source=source,
                )
            )
    return entries


def build_pool(checkpoints, top_n: int = None) -> Pool:
    """Assemble a pool from checkpoint files (or PoolEntry lists).

    All entries across all checkpoints are candidates; they are ordered
    deterministically by (fitness, source) and the lowest-fitness ``top_n``
    are kept (all of them when ``top_n`` is None).
    """
    candidates = []
    for checkpoint in checkpoints:
        if isinstance(checkpoint, (list, tuple)):
            candidates.extend(checkpoint)
        else:
            candidates.extend(read_checkpoint(checkpoint))
    candidates.sort(key=lambda e: (e.fitness, e.source))
    if top_n is not None:
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        candidates = candidates[:top_n]
    if not candidates:
        raise ValueError("pool selection is empty")
    return Pool(tuple(candidates))


def write_pool_manifest(pool: Pool, path) -> None:
    payload = {
        "programs": [
            {"program": print_program(e.program), "fitness": e.fitness, "source": e.source}
            for e in pool.entries
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_pool_manifest(path) -> Pool:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    records = _record(payload, f"pool manifest {path}", ("programs",))["programs"]
    if not isinstance(records, list):
        raise ValueError(f'pool manifest {path}: "programs" is not a JSON list')
    entries = []
    for i, record in enumerate(records):
        where = f"pool manifest {path} entry {i}"
        record = _record(record, where, ("program",))
        entries.append(
            PoolEntry(
                program=_program(record, where),
                fitness=float(record.get("fitness", 0.0)),
                source=str(record.get("source", f"{path}:{i}")),
            )
        )
    return Pool(tuple(entries))
