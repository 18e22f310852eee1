"""The persistent run store — durable provenance for campaign runs.

Where the result cache (:mod:`repro.harness.cache`) is a *throughput*
device — one flat JSON file per table, keyed so any code change
invalidates everything — the run store is a *record*: every campaign
run gets a directory holding the resolved campaign, one manifest per
entry (spec digest, store key, seed, executor, python/numpy versions,
wall time, row counts) and the entry's rows as both JSON and CSV plus
the rendered markdown table. Reports and diffs read the store alone;
nothing is ever re-executed to ask "what did that run produce?".

Layout (default root ``.repro_runs/``, override via ``store`` arguments
or the ``REPRO_RUNS_DIR`` environment variable)::

    .repro_runs/<campaign>/<run_id>/
        campaign.json            # resolved campaign + digest + defaults
        manifest.json            # campaign-level summary (written last)
        entries/<entry_id>/
            manifest.json        # provenance; written after the rows
            rows.json            # the table payload (bit-exact resume)
            rows.csv             # for downstream plotting
            table.md             # the rendered table

Resume is manifest-driven and layered on the result-cache keys: an
entry manifest whose ``key`` equals the freshly computed
:func:`repro.harness.cache.cache_key` (same scenario digest, trials,
seed *and code version*) proves the stored rows are exactly what a
re-run would produce, so the orchestrator loads them instead of
running. Every file lands via write-to-temp + atomic replace, and the
manifest is written only after the row files, so a crash mid-entry
leaves no manifest — the entry simply re-runs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.harness.cache import json_default, replace_atomically
from repro.harness.runner import ExperimentTable
from repro.harness.tables import write_csv
from repro.model.errors import HarnessError, StoreError

__all__ = ["DEFAULT_STORE_DIR", "CampaignRun", "RunStore"]

DEFAULT_STORE_DIR = Path(".repro_runs")

_SCHEMA = 1


def _write_json(path: Path, payload: object) -> None:
    """Atomic JSON write (unique temp file + replace)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, default=json_default, indent=1)
    replace_atomically(path, lambda tmp: tmp.write_text(text, "utf-8"))


def _read_json(path: Path) -> Optional[dict]:
    """Best-effort JSON read; unreadable/corrupt files are None."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class RunStore:
    """The on-disk root holding every campaign's runs."""

    def __init__(self, root: "str | Path | None" = None) -> None:
        if root is None:
            env = os.environ.get("REPRO_RUNS_DIR")
            root = Path(env) if env else DEFAULT_STORE_DIR
        self.root = Path(root)

    def run(self, campaign: str, run_id: str) -> "CampaignRun":
        """A handle on one (possibly not yet created) campaign run."""
        return CampaignRun(self, campaign, run_id)

    def list_runs(self, campaign: str) -> List[str]:
        """Stored run ids for a campaign, oldest first."""
        base = self.root / campaign
        if not base.is_dir():
            return []
        runs = [
            p.name
            for p in base.iterdir()
            if p.is_dir() and (p / "campaign.json").exists()
        ]

        def started(run_id: str) -> float:
            payload = _read_json(base / run_id / "campaign.json") or {}
            try:
                return float(payload["started"])
            except (KeyError, TypeError, ValueError):
                return (base / run_id).stat().st_mtime

        return sorted(runs, key=lambda r: (started(r), r))

    def latest_run(self, campaign: str) -> "CampaignRun":
        """The most recently started run of a campaign.

        Raises:
            HarnessError: when the campaign has no stored runs.
        """
        runs = self.list_runs(campaign)
        if not runs:
            raise HarnessError(
                f"no stored runs for campaign {campaign!r} under "
                f"{self.root} (run 'run-campaign {campaign}' first)"
            )
        return self.run(campaign, runs[-1])

    def campaigns(self) -> List[str]:
        """Campaign names with at least one stored run."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_dir() and any(p.iterdir())
        )


class CampaignRun:
    """One run directory: the single reader/writer surface.

    All mutation goes through :meth:`write_campaign`,
    :meth:`write_entry`, :meth:`write_failed_entry` and
    :meth:`write_manifest`; all file formats stay private to this
    class, so reports, diffs and the orchestrator can never disagree
    about the layout.
    """

    def __init__(
        self, store: RunStore, campaign: str, run_id: str
    ) -> None:
        self.store = store
        self.campaign = campaign
        self.run_id = run_id
        self.path = store.root / campaign / run_id

    # -- campaign level -------------------------------------------------
    def exists(self) -> bool:
        return (self.path / "campaign.json").exists()

    def write_campaign(self, payload: Dict[str, object]) -> None:
        """Record the resolved campaign once, at first run.

        A resume keeps the original record (same digest by
        construction — the run id derives from it), preserving the
        original ``started`` stamp.
        """
        target = self.path / "campaign.json"
        if target.exists():
            return
        _write_json(
            target,
            {"schema": _SCHEMA, "started": time.time(), **payload},
        )

    def campaign_payload(self) -> Optional[dict]:
        return _read_json(self.path / "campaign.json")

    def write_manifest(self, payload: Dict[str, object]) -> None:
        """The campaign-level summary; rewritten by every invocation."""
        _write_json(
            self.path / "manifest.json",
            {"schema": _SCHEMA, "finished": time.time(), **payload},
        )

    def manifest(self) -> Optional[dict]:
        return _read_json(self.path / "manifest.json")

    # -- entries --------------------------------------------------------
    def entry_dir(self, entry_id: str) -> Path:
        return self.path / "entries" / entry_id

    def entry_ids(self) -> List[str]:
        """Entry ids present on disk, in campaign order when known."""
        base = self.path / "entries"
        on_disk = (
            [p.name for p in base.iterdir() if p.is_dir()]
            if base.is_dir()
            else []
        )
        payload = self.campaign_payload() or {}
        ordered = [
            e for e in payload.get("entry_ids", []) if e in on_disk
        ]
        ordered.extend(sorted(e for e in on_disk if e not in ordered))
        return ordered

    def entry_manifest(self, entry_id: str) -> Optional[dict]:
        return _read_json(self.entry_dir(entry_id) / "manifest.json")

    def load_entry_table(
        self, entry_id: str
    ) -> Optional[ExperimentTable]:
        """The stored rows of one entry, or None when absent/corrupt."""
        payload = _read_json(self.entry_dir(entry_id) / "rows.json")
        if payload is None:
            return None
        try:
            return ExperimentTable.from_payload(payload)
        except (KeyError, ValueError):
            return None

    def vouched_entry_table(self, entry_id: str) -> ExperimentTable:
        """The rows an entry's own manifest vouches for — or raise.

        For readers (reports, diffs, gates) that were *promised* rows:
        the entry's manifest says ``status: done``, which by the
        rows-before-manifest write ordering guarantees ``rows.json``
        landed. If the rows are nonetheless missing, unreadable or
        empty, the store is corrupt — that is a :class:`StoreError`
        (exit code 2 territory), not a quiet "no rows" miss.
        """
        table = self.load_entry_table(entry_id)
        if table is None or not table.rows:
            raise StoreError(
                f"entry {entry_id!r} of run "
                f"{self.campaign}@{self.run_id} is marked done but its "
                "stored rows.json is missing, corrupt or empty; re-run "
                "the campaign (or delete the entry directory) to "
                "repair the store"
            )
        return table

    def completed_entry(
        self, entry_id: str, key: str
    ) -> Optional[ExperimentTable]:
        """The stored table iff the entry completed under this exact key.

        The key is the result-cache key (scenario digest + trials +
        seed + code version), so a hit is guaranteed bit-identical to
        what re-running the entry would produce — the resume contract.
        """
        manifest = self.entry_manifest(entry_id)
        if (
            manifest is None
            or manifest.get("status") != "done"
            or manifest.get("key") != key
        ):
            return None
        return self.load_entry_table(entry_id)

    def write_entry(
        self,
        entry_id: str,
        manifest: Dict[str, object],
        table: ExperimentTable,
    ) -> None:
        """Persist one completed entry: rows first, manifest last.

        Ordering is the crash-safety invariant: a manifest with
        ``status: "done"`` implies every row file already landed, so an
        interrupted write can never masquerade as a completed entry.
        """
        directory = self.entry_dir(entry_id)
        directory.mkdir(parents=True, exist_ok=True)
        _write_json(directory / "rows.json", table.to_payload())
        replace_atomically(
            directory / "rows.csv",
            lambda tmp: write_csv(tmp, table.rows, columns=table.columns),
        )
        markdown = table.to_markdown() + "\n"
        replace_atomically(
            directory / "table.md",
            lambda tmp: tmp.write_text(markdown, "utf-8"),
        )
        # The store-controlled fields come last: they must win over
        # anything a caller-supplied manifest happens to carry (e.g. a
        # previous attempt's status when a retry reuses its block).
        _write_json(
            directory / "manifest.json",
            {
                "schema": _SCHEMA,
                **manifest,
                "entry_id": entry_id,
                "status": "done",
                "row_count": len(table.rows),
            },
        )

    def write_failed_entry(
        self, entry_id: str, manifest: Dict[str, object], error: str
    ) -> None:
        """Record a failed entry (no rows; re-runs on resume)."""
        _write_json(
            self.entry_dir(entry_id) / "manifest.json",
            {
                "schema": _SCHEMA,
                **manifest,
                "entry_id": entry_id,
                "status": "failed",
                "error": error,
            },
        )
