"""Experiment execution scaffolding.

An :class:`ExperimentTable` is the standard deliverable of every
experiment: an id (matching DESIGN.md's index), a title, flat dict rows,
and free-text notes interpreting the rows against the paper's claim.
:func:`run_trials` standardizes seeded repetition: per-trial seeds are
derived up front from the master seed, then handed to a pluggable
:class:`~repro.harness.executor.Executor` (serial, process-parallel, or
vectorized-batch — see :mod:`repro.harness.executor`). Because each
trial is a pure function of its seed, every strategy yields bit-identical
results; ``jobs``/executor choice is throughput only.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.harness.executor import Executor, StreamingExecutor, get_executor
from repro.harness.tables import render_markdown, write_csv
from repro.model.errors import HarnessError
from repro.sim.rng import RngHub

__all__ = ["ExperimentTable", "run_trials", "stream_trials"]

T = TypeVar("T")
Row = Dict[str, object]


@dataclass
class ExperimentTable:
    """One experiment's regenerated table.

    Attributes:
        experiment_id: DESIGN.md index id, e.g. ``"E2"``.
        title: Human-readable claim summary.
        rows: Flat result rows (consistent keys per experiment).
        notes: Interpretation against the paper's claim.
        columns: Optional explicit column order.
    """

    experiment_id: str
    title: str
    rows: List[Row]
    notes: str = ""
    columns: Optional[Sequence[str]] = None

    def to_markdown(self) -> str:
        """Render the table (with title and notes) as markdown."""
        body = render_markdown(
            self.rows,
            columns=self.columns,
            title=f"{self.experiment_id} — {self.title}",
        )
        if self.notes:
            body += f"\n\n{self.notes.strip()}\n"
        return body

    def save(self, directory: str | Path) -> Dict[str, Path]:
        """Write ``<id>.md`` and ``<id>.csv`` into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        md_path = directory / f"{self.experiment_id.lower()}.md"
        md_path.write_text(self.to_markdown() + "\n")
        csv_path = write_csv(
            directory / f"{self.experiment_id.lower()}.csv",
            self.rows,
            columns=self.columns,
        )
        return {"markdown": md_path, "csv": csv_path}

    def to_payload(self) -> Dict[str, object]:
        """A JSON-ready dict of the table's full content.

        The single serialized form shared by the result cache and the
        campaign run store, so a table persisted by either layer loads
        back through :meth:`from_payload` without translation.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "rows": self.rows,
            "notes": self.notes,
            "columns": list(self.columns) if self.columns else None,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ExperimentTable":
        """Rebuild a table from :meth:`to_payload` output.

        Raises:
            KeyError: when the payload misses a required field.
            ValueError: when ``rows`` is not a list of flat dicts —
                a hand-edited or corrupt persisted table. Callers (the
                result cache, the campaign run store) treat both as a
                miss and recompute.
        """
        rows = payload["rows"]
        if not isinstance(rows, list) or not all(
            isinstance(row, dict) for row in rows
        ):
            raise ValueError(
                "malformed table payload: rows must be a list of objects"
            )
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            rows=rows,
            notes=payload.get("notes", ""),
            columns=payload.get("columns"),
        )


def run_trials(
    trial: Callable[[int], T],
    trials: int,
    seed: int,
    label: str = "trials",
    executor: "Executor | int | str | None" = None,
) -> List[T]:
    """Run ``trial`` with ``trials`` independent derived seeds.

    Args:
        trial: Callable taking a trial seed. An ``xbatch`` attribute
            (a :class:`~repro.core.xbatch.XBatchable` descriptor) opts
            the trial into vectorized execution under a batched
            executor.
        trials: Number of repetitions (``>= 1``).
        seed: Master seed; per-trial seeds derive deterministically.
        label: Seed-stream label (vary to decorrelate phases).
        executor: Execution strategy — an
            :class:`~repro.harness.executor.Executor` or any ``jobs``
            value :func:`~repro.harness.executor.get_executor` accepts
            (default: serial). Strategy never changes results, only
            wall-clock.

    Returns:
        The list of per-trial results, in trial order.

    Raises:
        HarnessError: eagerly, naming the trial seed, when any trial
            raises mid-sweep.
    """
    if trials < 1:
        raise HarnessError(f"trials must be >= 1, got {trials}")
    seeds = RngHub(seed).spawn_seeds(trials, name=label)
    return get_executor(executor).run(trial, seeds)


def stream_trials(
    trial: Callable[[int], T],
    seed: int,
    consume: Callable[[List[T], int], bool],
    max_trials: int,
    label: str = "trials",
    executor: "Executor | int | str | None" = None,
) -> int:
    """Run ``trial`` in memory-capped chunks until ``consume`` says stop.

    The streaming counterpart of :func:`run_trials`: per-trial seeds
    come from the *same* derivation
    (:meth:`~repro.sim.rng.RngHub.seed_stream` is prefix-stable with
    ``spawn_seeds``), but are drawn lazily chunk by chunk, and each
    chunk's results are handed to ``consume`` instead of accumulating
    in a list. Trial ``i`` therefore sees exactly the seed a fixed
    ``run_trials(trial, i + 1, seed, label)`` run would give it,
    regardless of chunk size.

    Args:
        trial: Callable taking a trial seed (``xbatch`` opt-in as in
            :func:`run_trials`; chunks ride the vectorized batch by
            default).
        seed: Master seed; per-trial seeds derive deterministically.
        consume: Called after every chunk with ``(results, total_so_
            far)``; folds the chunk into online accumulators and
            returns ``True`` to stop early (e.g. a precision target
            met).
        max_trials: Hard ceiling on total trials.
        label: Seed-stream label (vary to decorrelate phases).
        executor: A :class:`~repro.harness.executor.StreamingExecutor`,
            or any ``jobs`` value — non-streaming values become the
            *inner* per-chunk strategy of a default-size streaming
            executor.

    Returns:
        The total number of trials actually run.

    Raises:
        HarnessError: if ``max_trials < 1``, or eagerly when any trial
            raises mid-chunk.
    """
    if isinstance(executor, StreamingExecutor):
        streaming = executor
    elif executor is None:
        streaming = StreamingExecutor()
    else:
        resolved = get_executor(executor)
        if isinstance(resolved, StreamingExecutor):
            streaming = resolved
        else:
            streaming = StreamingExecutor(inner=resolved)
    stream = RngHub(seed).seed_stream(name=label)
    done = 0
    for results in streaming.iter_chunks(trial, stream, max_trials):
        done += len(results)
        if consume(results, done):
            break
    return done
