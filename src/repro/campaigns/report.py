"""Cross-run reporting: summaries and diffs read from the store alone.

Nothing in this module executes a scenario. Reports and diffs are pure
functions of what :mod:`repro.campaigns.store` already persisted — the
point of the run store is that "what did that study produce?" and "what
changed between these two runs?" are answerable offline, after the
fact, on a machine that never ran anything.

Run references (the CLI's ``report``/``diff-runs`` arguments) come in
two forms:

* ``<campaign>[@<run_id>][:<entry_id>]`` — by name; the run defaults
  to the campaign's most recently started stored run.
* a filesystem path to a run directory or an entry directory inside
  the store (useful for runs copied off CI).

Diffing two *entries* aligns their rows and reports per-column deltas
(numeric columns get an explicit ``Δ`` column); diffing two *runs* (or
two campaigns' runs — e.g. the same study at two commits, or a
``markov`` vs ``poisson`` sweep pair) matches entries by id and diffs
each pair. Columns whose values agree everywhere collapse into shared
key columns, so a diff of a 6-point sweep reads as one compact table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.campaigns.gates import evaluate_run, verdict_table
from repro.campaigns.spec import campaign_from_dict
from repro.campaigns.store import CampaignRun, RunStore
from repro.harness.runner import ExperimentTable
from repro.harness.tables import format_value, render_markdown, write_csv
from repro.model.errors import HarnessError

__all__ = [
    "campaign_report",
    "diff_refs",
    "entry_report",
    "gate_section",
    "load_ref",
    "summary_rows",
    "telemetry_section",
    "write_report",
]

Row = Dict[str, object]


@dataclass(frozen=True)
class _Ref:
    """A parsed run reference: one run, optionally one entry."""

    run: CampaignRun
    entry_id: Optional[str]

    @property
    def label(self) -> str:
        base = f"{self.run.campaign}@{self.run.run_id}"
        return f"{base}:{self.entry_id}" if self.entry_id else base


def load_ref(store: RunStore, ref: str) -> _Ref:
    """Resolve a reference string against the store.

    Raises:
        HarnessError: when the campaign, run or entry does not exist.
    """
    path = Path(ref)
    if (path / "campaign.json").exists():
        return _Ref(_run_from_path(store, path), None)
    if (path / "manifest.json").exists() and path.parent.name == "entries":
        run = _run_from_path(store, path.parent.parent)
        return _Ref(run, path.name)

    name, _, entry_id = ref.partition(":")
    campaign, _, run_id = name.partition("@")
    if not campaign:
        raise HarnessError(f"empty campaign in run reference {ref!r}")
    if run_id:
        run = store.run(campaign, run_id)
        if not run.exists():
            runs = store.list_runs(campaign)
            raise HarnessError(
                f"no stored run {run_id!r} for campaign {campaign!r} "
                f"under {store.root}; stored runs: "
                f"{', '.join(runs) if runs else '(none)'}"
            )
    else:
        run = store.latest_run(campaign)
    if entry_id:
        if run.entry_manifest(entry_id) is None:
            raise HarnessError(
                f"run {run.campaign}@{run.run_id} has no entry "
                f"{entry_id!r}; entries: "
                f"{', '.join(run.entry_ids()) or '(none)'}"
            )
        return _Ref(run, entry_id)
    return _Ref(run, None)


def _run_from_path(store: RunStore, path: Path) -> CampaignRun:
    run = CampaignRun(store, path.parent.name, path.name)
    # A direct path may live outside store.root; point the handle at it.
    run.path = path
    return run


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def summary_rows(run: CampaignRun) -> List[Row]:
    """One row per stored entry: status, shape and provenance."""
    rows: List[Row] = []
    for entry_id in run.entry_ids():
        manifest = run.entry_manifest(entry_id) or {}
        rows.append(
            {
                "entry": entry_id,
                "scenario": manifest.get("scenario"),
                "status": manifest.get("status", "missing"),
                "rows": manifest.get("row_count"),
                "trials": manifest.get("trials"),
                "seed": manifest.get("seed"),
                "wall_s": manifest.get("wall_time"),
                "digest": manifest.get("scenario_digest"),
            }
        )
    if not rows:
        raise HarnessError(
            f"run {run.campaign}@{run.run_id} has no stored entries"
        )
    return rows


def campaign_report(run: CampaignRun) -> str:
    """The full markdown report of one stored run."""
    payload = run.campaign_payload() or {}
    manifest = run.manifest() or {}
    campaign = payload.get("campaign", {})
    lines: List[str] = [
        f"# Campaign report — {run.campaign} @ {run.run_id}",
        "",
    ]
    if campaign.get("title"):
        lines += [str(campaign["title"]), ""]
    provenance = [
        f"seed {payload.get('seed')}",
        f"trials {payload.get('trials') or 'default'}",
    ]
    if manifest:
        provenance += [
            f"executor {manifest.get('executor')}",
            f"code {manifest.get('code')}",
            f"python {manifest.get('python')}",
            f"numpy {manifest.get('numpy')}",
        ]
        counts = manifest.get("counts", {})
        provenance.append(
            f"status {manifest.get('status')} "
            f"({counts.get('ran', 0)} ran, {counts.get('cached', 0)} "
            f"cached, {counts.get('failed', 0)} failed, "
            f"{manifest.get('wall_time', 0.0):.1f}s)"
        )
    lines += [" · ".join(str(p) for p in provenance), ""]

    lines += ["## Summary", "", render_markdown(summary_rows(run)), ""]

    gates = gate_section(run)
    if gates:
        lines += ["## Gates", "", gates, ""]

    telemetry = telemetry_section(run)
    if telemetry:
        lines += ["## Telemetry", "", telemetry, ""]

    for entry_id in run.entry_ids():
        entry_manifest = run.entry_manifest(entry_id) or {}
        if entry_manifest.get("status") != "done":
            lines += [
                f"## {entry_id} — {entry_manifest.get('status', 'missing')}",
                "",
            ]
            if entry_manifest.get("error"):
                lines += [f"```\n{entry_manifest['error']}\n```", ""]
            continue
        table = run.vouched_entry_table(entry_id)
        lines += [f"## {entry_id}", "", table.to_markdown(), ""]
    return "\n".join(lines).rstrip() + "\n"


def gate_section(run: CampaignRun) -> Optional[str]:
    """The PASS/FAIL verdict table for a gated stored run, or None.

    Verdicts are re-evaluated live from the store (never read back
    from the manifest), so a report always shows what ``gate`` would
    conclude right now — the two commands cannot disagree.
    """
    payload = run.campaign_payload() or {}
    raw = payload.get("campaign")
    if not isinstance(raw, dict):
        return None
    spec = campaign_from_dict(raw)
    if not spec.gated():
        return None
    report = evaluate_run(run, spec=spec)
    return (
        f"Gate verdict: **{report.status.upper()}**\n\n"
        + verdict_table(report)
    )


def telemetry_section(run: CampaignRun) -> Optional[str]:
    """Per-entry stage breakdowns from stored manifests, or None.

    Rendered store-only: the section is a pure function of the
    ``telemetry`` blocks that ``run-campaign --telemetry`` persisted in
    entry manifests — no scenario re-executes, and runs recorded
    without telemetry simply have no section.
    """
    per_entry: List[Tuple[str, dict]] = []
    for entry_id in run.entry_ids():
        manifest = run.entry_manifest(entry_id) or {}
        snap = manifest.get("telemetry")
        if isinstance(snap, dict):
            per_entry.append((entry_id, snap))
    if not per_entry:
        return None
    rows: List[Row] = []
    for entry_id, snap in per_entry:
        for stage in obs.stage_rows(snap):
            rows.append(
                {
                    "entry": entry_id,
                    "stage": stage["stage"],
                    "calls": stage["calls"],
                    "total_s": round(stage["total_s"], 4),
                    "mean_ms": round(stage["mean_ms"], 3),
                    "share": f"{stage['share'] * 100:.1f}%",
                }
            )
    lines: List[str] = []
    if rows:
        lines += [render_markdown(rows), ""]
    merged = obs.merge_snapshots(*(snap for _, snap in per_entry))
    lines.append(obs.render_telemetry(merged, heading="**Campaign totals**"))
    return "\n".join(lines).rstrip()


def entry_report(run: CampaignRun, entry_id: str) -> str:
    """One entry's markdown: provenance line + its stored table."""
    manifest = run.entry_manifest(entry_id)
    if manifest is None:
        raise HarnessError(
            f"run {run.campaign}@{run.run_id} has no entry "
            f"{entry_id!r}; entries: "
            f"{', '.join(run.entry_ids()) or '(none)'}"
        )
    lines = [
        f"# Entry report — {run.campaign}@{run.run_id}:{entry_id}",
        "",
        _entry_provenance(manifest),
        "",
    ]
    if manifest.get("status") != "done":
        lines.append(f"Status: {manifest.get('status')}")
        if manifest.get("error"):
            lines += ["", f"```\n{manifest['error']}\n```"]
        return "\n".join(lines).rstrip() + "\n"
    lines.append(run.vouched_entry_table(entry_id).to_markdown())
    snap = manifest.get("telemetry")
    if isinstance(snap, dict):
        lines += ["", obs.render_telemetry(snap, heading="**Telemetry**")]
    return "\n".join(lines).rstrip() + "\n"


def write_report(
    run: CampaignRun,
    out_dir: "str | Path",
    entry_id: Optional[str] = None,
) -> Dict[str, Path]:
    """Write a stored run (or one entry of it) as files.

    Whole-run: ``report.md`` + ``summary.csv``. Single entry:
    ``report.md`` holds the entry report, and ``rows.csv`` its rows
    (omitted when the entry has no completed rows) — the written files
    always match what the ``report`` command printed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    md_path = out / "report.md"
    if entry_id is None:
        md_path.write_text(campaign_report(run), encoding="utf-8")
        csv_path = write_csv(out / "summary.csv", summary_rows(run))
        return {"markdown": md_path, "csv": csv_path}
    md_path.write_text(entry_report(run, entry_id), encoding="utf-8")
    paths: Dict[str, Path] = {"markdown": md_path}
    manifest = run.entry_manifest(entry_id) or {}
    table = (
        run.vouched_entry_table(entry_id)
        if manifest.get("status") == "done"
        else None
    )
    if table is not None:
        paths["csv"] = write_csv(
            out / "rows.csv", table.rows, columns=table.columns
        )
    return paths


# ----------------------------------------------------------------------
# Diffs
# ----------------------------------------------------------------------
def _table_columns(table: ExperimentTable) -> List[str]:
    if table.columns:
        return list(table.columns)
    cols: List[str] = []
    for row in table.rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    return cols


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _diff_tables(
    table_a: ExperimentTable, table_b: ExperimentTable
) -> Tuple[List[str], bool]:
    """Markdown lines + verdict for two stored tables.

    Equal-length tables align row-by-row (sweep order is deterministic,
    so position is identity); columns that agree everywhere become
    shared key columns and the rest expand into a/b(/Δ) triples.
    """
    cols_a, cols_b = _table_columns(table_a), _table_columns(table_b)
    shared = [c for c in cols_a if c in cols_b]
    only_a = [c for c in cols_a if c not in cols_b]
    only_b = [c for c in cols_b if c not in cols_a]
    lines: List[str] = []
    identical = not only_a and not only_b
    if only_a:
        lines.append(f"Columns only in a: {', '.join(only_a)}")
    if only_b:
        lines.append(f"Columns only in b: {', '.join(only_b)}")

    rows_a, rows_b = table_a.rows, table_b.rows
    if len(rows_a) != len(rows_b):
        lines.append(
            f"Row counts differ: {len(rows_a)} (a) vs {len(rows_b)} "
            "(b); no aligned diff."
        )
        return lines, False

    pairs = list(zip(rows_a, rows_b))
    keys = [
        c
        for c in shared
        if all(ra.get(c) == rb.get(c) for ra, rb in pairs)
    ]
    changed = [c for c in shared if c not in keys]
    if not changed:
        lines.append(
            f"{len(rows_a)} rows, all shared columns identical."
        )
        return lines, identical

    header: List[str] = list(keys)
    for c in changed:
        header += [f"{c} (a)", f"{c} (b)"]
        if all(
            _is_number(ra.get(c)) and _is_number(rb.get(c))
            for ra, rb in pairs
        ):
            header.append(f"Δ {c}")
    lines.append("| " + " | ".join(header) + " |")
    lines.append("| " + " | ".join("---" for _ in header) + " |")
    for ra, rb in pairs:
        cells = [format_value(ra.get(c)) for c in keys]
        for c in changed:
            va, vb = ra.get(c), rb.get(c)
            cells += [format_value(va), format_value(vb)]
            if f"Δ {c}" in header:
                cells.append(format_value(vb - va))
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(
        f"Differing columns: {', '.join(changed)}; key columns: "
        f"{', '.join(keys) if keys else '(none)'}."
    )
    return lines, False


def _entry_provenance(manifest: dict) -> str:
    bits = [
        f"scenario {manifest.get('scenario')}",
        f"digest {manifest.get('scenario_digest')}",
        f"trials {manifest.get('trials')}",
        f"seed {manifest.get('seed')}",
        f"code {manifest.get('code')}",
    ]
    vitals = manifest.get("vitals")
    if isinstance(vitals, dict):
        if vitals.get("peak_rss_kb"):
            bits.append(f"peak RSS {vitals['peak_rss_kb']} KiB")
    return " · ".join(str(b) for b in bits)


def _telemetry_diff(man_a: dict, man_b: dict) -> List[str]:
    """Informational stage-time comparison for two entry manifests.

    Wall-clock timings are never deterministic, so this table is purely
    informational — it must not (and does not) influence the
    identical-rows verdict.
    """
    snap_a, snap_b = man_a.get("telemetry"), man_b.get("telemetry")
    if not isinstance(snap_a, dict) or not isinstance(snap_b, dict):
        return []
    rows_a = {r["stage"]: r for r in obs.stage_rows(snap_a)}
    rows_b = {r["stage"]: r for r in obs.stage_rows(snap_b)}
    stages = list(dict.fromkeys([*rows_a, *rows_b]))
    if not stages:
        return []
    lines = [
        "",
        "Telemetry stages (informational; never affects the verdict):",
        "",
        "| stage | total_s (a) | total_s (b) | ratio b/a |",
        "| --- | ---: | ---: | ---: |",
    ]
    for stage in stages:
        total_a = rows_a.get(stage, {}).get("total_s", 0.0)
        total_b = rows_b.get(stage, {}).get("total_s", 0.0)
        ratio = f"{total_b / total_a:.2f}" if total_a else "—"
        lines.append(
            f"| {stage} | {total_a:.4f} | {total_b:.4f} | {ratio} |"
        )
    return lines


def _diff_entries(
    ref_a: _Ref, entry_a: str, ref_b: _Ref, entry_b: str
) -> Tuple[List[str], bool]:
    man_a = ref_a.run.entry_manifest(entry_a) or {}
    man_b = ref_b.run.entry_manifest(entry_b) or {}
    lines = [
        f"a: {ref_a.run.campaign}@{ref_a.run.run_id}:{entry_a} — "
        f"{_entry_provenance(man_a)}",
        f"b: {ref_b.run.campaign}@{ref_b.run.run_id}:{entry_b} — "
        f"{_entry_provenance(man_b)}",
        "",
    ]
    # Rows count only when the manifest vouches for them: a rows.json
    # left behind by an earlier success must not be diffed as current
    # once the entry's latest state is "failed". Conversely, a "done"
    # manifest whose rows are gone is store corruption and raises.
    table_a = (
        ref_a.run.vouched_entry_table(entry_a)
        if man_a.get("status") == "done"
        else None
    )
    table_b = (
        ref_b.run.vouched_entry_table(entry_b)
        if man_b.get("status") == "done"
        else None
    )
    if table_a is None or table_b is None:
        missing = [
            label
            for label, table in (("a", table_a), ("b", table_b))
            if table is None
        ]
        lines.append(
            f"No completed rows for side(s): {', '.join(missing)}."
        )
        return lines, False
    body, identical = _diff_tables(table_a, table_b)
    # Appended after the verdict-bearing table diff: timings differ on
    # every run, so the telemetry comparison is display-only.
    body += _telemetry_diff(man_a, man_b)
    return lines + body, identical


def diff_refs(
    store: RunStore, raw_a: str, raw_b: str
) -> Tuple[str, bool]:
    """Diff two references; returns (markdown, identical).

    Entry vs entry diffs the two tables. Run vs run matches entries by
    id (a's order) and diffs each pair — so diffing a campaign against
    the same campaign at another commit, or the ``markov`` entry
    against the ``poisson`` entry of ``traffic-models``, is the same
    command.
    """
    ref_a, ref_b = load_ref(store, raw_a), load_ref(store, raw_b)
    if (ref_a.entry_id is None) != (ref_b.entry_id is None):
        raise HarnessError(
            "cannot diff a whole run against a single entry; give two "
            "entries or two runs"
        )
    lines: List[str] = [f"# Diff — {ref_a.label} vs {ref_b.label}", ""]
    if ref_a.entry_id is not None:
        body, identical = _diff_entries(
            ref_a, ref_a.entry_id, ref_b, ref_b.entry_id
        )
        lines += body
    else:
        ids_a: Sequence[str] = ref_a.run.entry_ids()
        ids_b: Sequence[str] = ref_b.run.entry_ids()
        shared = [e for e in ids_a if e in ids_b]
        only_a = [e for e in ids_a if e not in ids_b]
        only_b = [e for e in ids_b if e not in ids_a]
        identical = not only_a and not only_b
        if only_a:
            lines.append(f"Entries only in a: {', '.join(only_a)}")
        if only_b:
            lines.append(f"Entries only in b: {', '.join(only_b)}")
        if not shared:
            lines.append("No shared entries to diff.")
            identical = False
        for entry_id in shared:
            lines += [f"## {entry_id}", ""]
            body, entry_identical = _diff_entries(
                ref_a, entry_id, ref_b, entry_id
            )
            lines += body + [""]
            identical = identical and entry_identical
    verdict = (
        "Verdict: identical rows."
        if identical
        else "Verdict: runs differ."
    )
    lines += ["", verdict]
    return "\n".join(lines).rstrip() + "\n", identical
