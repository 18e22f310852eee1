"""Deterministic experiment-table result cache.

Every experiment is a pure function of ``(experiment id, trials, seed,
code)`` — the executor layer guarantees the execution strategy does not
perturb rows — so a finished table can be keyed by exactly those inputs
and replayed from disk. Re-runs of a sweep (and CI benchmark jobs that
regenerate tables on every push) then skip completed work.

The cache key folds in a *code version*: a digest over the ``repro``
package's source files. Any source change invalidates every entry, which
is deliberately coarse — correctness over cleverness; stale tables must
never survive an algorithm change.

Entries live under ``.repro_cache/`` (override via ``cache_dir`` or the
``REPRO_CACHE_DIR`` environment variable) as one JSON file per table.
The ``jobs`` knob is deliberately *not* part of the key: serial,
parallel and batched execution produce bit-identical rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Callable, Mapping, Optional

from repro.harness.runner import ExperimentTable

__all__ = [
    "DEFAULT_CACHE_DIR",
    "cache_key",
    "code_version",
    "json_default",
    "load_table",
    "replace_atomically",
    "store_table",
]

DEFAULT_CACHE_DIR = Path(".repro_cache")

_code_version: Optional[str] = None


def code_version() -> str:
    """Digest of the ``repro`` package's source tree (cached per process)."""
    global _code_version
    if _code_version is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()[:16]
    return _code_version


def cache_key(
    experiment_id: str,
    trials: Optional[int],
    seed: int,
    extra: "Mapping[str, object] | None" = None,
) -> str:
    """Stable key for one table: experiment + params + code version.

    ``extra`` folds additional identity into the key — the scenario
    layer passes its spec digest (which covers every ``--set``
    override), so an overridden scenario run can never collide with a
    default-parameter cache entry. Omitting ``extra`` reproduces the
    pre-scenario key exactly.
    """
    fields: dict = {
        "experiment": experiment_id.upper(),
        "trials": trials,
        "seed": seed,
        "code": code_version(),
    }
    if extra:
        fields["extra"] = dict(extra)
    payload = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _resolve_dir(cache_dir: "str | Path | None") -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else DEFAULT_CACHE_DIR


def _entry_path(
    experiment_id: str,
    trials: Optional[int],
    seed: int,
    cache_dir: "str | Path | None",
    extra: "Mapping[str, object] | None" = None,
) -> Path:
    key = cache_key(experiment_id, trials, seed, extra=extra)
    safe_id = "".join(
        ch if ch.isalnum() or ch in "-_" else "_"
        for ch in experiment_id.lower()
    )
    return _resolve_dir(cache_dir) / f"{safe_id}-{key}.json"


def json_default(value: object) -> object:
    """``json.dumps`` default coercing numpy scalars losslessly.

    Shared by the result cache and the campaign run store so every
    persisted row survives a round-trip with plain-Python values.
    """
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"unserializable cache value: {value!r}")


def replace_atomically(path: Path, write: Callable[[Path], object]) -> None:
    """Produce ``path`` via ``write(tmp)`` on a unique temp file + replace.

    The temp name is unique per call, so concurrent writers of one path
    never share a temp file: each replaces ``path`` with a complete
    file of its own, and a failed write removes its temp file.
    """
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def store_table(
    table: ExperimentTable,
    trials: Optional[int],
    seed: int,
    cache_dir: "str | Path | None" = None,
    extra: "Mapping[str, object] | None" = None,
) -> Path:
    """Persist a finished table; returns the entry path."""
    path = _entry_path(table.experiment_id, trials, seed, cache_dir, extra)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        **table.to_payload(),
        "trials": trials,
        "seed": seed,
        "code": code_version(),
    }
    if extra:
        payload["extra"] = dict(extra)
    text = json.dumps(payload, default=json_default, indent=1)
    replace_atomically(path, lambda tmp: tmp.write_text(text, "utf-8"))
    return path


def load_table(
    experiment_id: str,
    trials: Optional[int],
    seed: int,
    cache_dir: "str | Path | None" = None,
    extra: "Mapping[str, object] | None" = None,
) -> Optional[ExperimentTable]:
    """Return the cached table for these inputs, or None.

    Unreadable or corrupt entries are treated as misses (the caller
    recomputes and overwrites), never as errors.
    """
    path = _entry_path(experiment_id, trials, seed, cache_dir, extra)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    try:
        return ExperimentTable.from_payload(payload)
    except (KeyError, ValueError):
        return None
