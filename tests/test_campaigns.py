"""Tests for the campaign subsystem: spec, store, orchestrator, reports.

The determinism/resume contract is the heart of the suite: a campaign
interrupted at any point and re-run must produce rows bit-identical to
an uninterrupted run, and reports/diffs must come from the store alone
(no re-execution).
"""

import dataclasses
import json

import pytest

from repro.campaigns import (
    CampaignEntry,
    CampaignSpec,
    RunStore,
    SuccessDelta,
    campaign_digest,
    campaign_from_dict,
    campaign_report,
    campaign_to_dict,
    diff_refs,
    evaluate_run,
    expand_campaign,
    gate_exit_code,
    get_campaign,
    load_ref,
    run_campaign,
    run_id_for,
    seeded_shuffle,
    summary_rows,
    verdict_table,
    write_report,
)
from repro.campaigns import orchestrate
from repro.harness.runner import ExperimentTable
from repro.model.errors import HarnessError, StoreError
from tests.test_harness import write_concurrently


def tiny_campaign(name="tiny", **kwargs):
    """A fast two-entry campaign over tiny COUNT grids."""
    return CampaignSpec(
        name=name,
        title="tiny study",
        entries=(
            CampaignEntry(
                scenario="count-interference",
                id="clean",
                overrides={
                    "sweep.axes.m": [2],
                    "sweep.axes.activity": [0.0, 0.5],
                },
                trials=4,
            ),
            CampaignEntry(
                scenario="count-interference",
                id="noisy",
                overrides={
                    "sweep.axes.m": [2],
                    "sweep.axes.activity": [0.3, 0.7],
                },
                trials=4,
            ),
        ),
        **kwargs,
    )


def entry_rows_bytes(store_dir, campaign, entry_id):
    store = RunStore(store_dir)
    run = store.latest_run(campaign)
    return (run.entry_dir(entry_id) / "rows.json").read_bytes()


class TestCampaignSpec:
    def test_needs_entries(self):
        with pytest.raises(HarnessError, match="at least one entry"):
            CampaignSpec(name="x", title="t", entries=())

    def test_duplicate_entry_ids_rejected(self):
        with pytest.raises(HarnessError, match="duplicate entry ids"):
            CampaignSpec(
                name="x",
                title="t",
                entries=(
                    CampaignEntry(scenario="E1", id="a"),
                    CampaignEntry(scenario="E2", id="a"),
                ),
            )

    def test_entry_id_must_be_slug(self):
        with pytest.raises(HarnessError, match="lowercase slug"):
            CampaignEntry(scenario="E1", id="Not A Slug")

    def test_default_entry_ids_derive_from_slot_and_scenario(self):
        spec = CampaignSpec(
            name="x",
            title="t",
            entries=(
                CampaignEntry(scenario="E1"),
                CampaignEntry(scenario="markov-vs-poisson"),
            ),
        )
        assert spec.entry_ids() == ["01-e1", "02-markov-vs-poisson"]

    def test_file_entry_id_uses_stem(self):
        entry = CampaignEntry(scenario="examples/scenarios/foo_bar.json")
        assert entry.resolved_id(0) == "01-foo_bar"

    def test_round_trip_preserves_digest(self):
        spec = tiny_campaign(trials=3, seed=7, tags=("t",))
        back = campaign_from_dict(campaign_to_dict(spec))
        assert back == spec
        assert campaign_digest(back) == campaign_digest(spec)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(HarnessError, match="unknown campaign keys"):
            campaign_from_dict({"name": "x", "entries": [], "nope": 1})

    def test_from_dict_rejects_unknown_entry_keys(self):
        with pytest.raises(
            HarnessError, match="unknown campaign entry keys"
        ):
            campaign_from_dict(
                {"name": "x", "entries": [{"scenario": "E1", "zz": 2}]}
            )

    def test_bare_string_entry_shorthand(self):
        spec = campaign_from_dict(
            {"name": "x", "entries": ["E1", "E2"]}
        )
        assert [e.scenario for e in spec.entries] == ["E1", "E2"]

    def test_normalized_overrides_json_dump_non_strings(self):
        entry = CampaignEntry(
            scenario="E1",
            overrides={"sweep.axes.m": [2, 4], "trials": "8"},
        )
        assert entry.normalized_overrides() == {
            "sweep.axes.m": "[2, 4]",
            "trials": "8",
        }

    def test_stock_campaigns_registered(self):
        suite = get_campaign("paper-suite")
        assert [e.scenario for e in suite.entries] == [
            f"E{i}" for i in range(1, 13)
        ]
        traffic = get_campaign("traffic-models")
        assert traffic.entry_ids() == ["poisson", "markov"]
        assert traffic.gated()
        gated = get_campaign("cseek-vs-naive")
        assert gated.entry_ids() == ["naive", "cseek"]
        assert gated.gated()

    def test_digest_changes_with_overrides(self):
        a = tiny_campaign()
        b = tiny_campaign(seed=1)
        assert campaign_digest(a) != campaign_digest(b)


class TestRunIds:
    def test_deterministic(self):
        spec = tiny_campaign()
        assert run_id_for(spec, 0, None) == run_id_for(spec, 0, None)

    def test_sensitive_to_seed_and_trials(self):
        spec = tiny_campaign()
        base = run_id_for(spec, 0, None)
        assert run_id_for(spec, 1, None) != base
        assert run_id_for(spec, 0, 2) != base


class TestOrchestrator:
    def test_fresh_run_persists_rows_and_manifests(self, tmp_path):
        log = []
        result = run_campaign(
            tiny_campaign(), store=tmp_path, jobs="batch",
            log=log.append,
        )
        assert [o.status for o in result.outcomes] == ["ran", "ran"]
        run = RunStore(tmp_path).latest_run("tiny")
        assert run.entry_ids() == ["clean", "noisy"]
        for entry_id in ("clean", "noisy"):
            manifest = run.entry_manifest(entry_id)
            assert manifest["status"] == "done"
            assert manifest["row_count"] == 2
            assert manifest["executor"] == "batch"
            assert manifest["scenario"] == "count-interference"
            for field in (
                "key", "scenario_digest", "code", "python", "numpy",
                "wall_time", "trials", "seed",
            ):
                assert field in manifest, field
            directory = run.entry_dir(entry_id)
            assert (directory / "rows.csv").exists()
            assert (directory / "table.md").exists()
            table = run.load_entry_table(entry_id)
            assert isinstance(table, ExperimentTable)
            assert len(table.rows) == 2
        assert run.manifest()["status"] == "done"
        # The ordered progress log names every entry in order.
        assert any("[1/2] clean" in line for line in log)
        assert any("[2/2] noisy" in line for line in log)

    def test_resume_skips_completed_entries_bit_identically(
        self, tmp_path
    ):
        spec = tiny_campaign()
        run_campaign(spec, store=tmp_path, jobs="batch", log=lambda _: None)
        before = entry_rows_bytes(tmp_path, "tiny", "clean")
        result = run_campaign(
            spec, store=tmp_path, jobs="batch", log=lambda _: None
        )
        assert [o.status for o in result.outcomes] == [
            "cached", "cached",
        ]
        assert entry_rows_bytes(tmp_path, "tiny", "clean") == before

    def test_interrupted_campaign_resumes_bit_identically(
        self, tmp_path, monkeypatch
    ):
        """Kill mid-campaign; the resume must match an uninterrupted run."""
        spec = tiny_campaign()
        reference = tmp_path / "reference"
        interrupted = tmp_path / "interrupted"
        run_campaign(
            spec, store=reference, jobs="batch", log=lambda _: None
        )

        real_run_scenario = orchestrate.run_scenario
        calls = []

        def dying_run_scenario(*args, **kwargs):
            calls.append(1)
            if len(calls) >= 2:
                raise KeyboardInterrupt  # the "kill" arrives here
            return real_run_scenario(*args, **kwargs)

        monkeypatch.setattr(
            orchestrate, "run_scenario", dying_run_scenario
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                spec, store=interrupted, jobs="batch",
                log=lambda _: None,
            )
        monkeypatch.setattr(
            orchestrate, "run_scenario", real_run_scenario
        )
        # Only the first entry completed; the second left no manifest.
        run = RunStore(interrupted).run(
            "tiny", run_id_for(spec, 0, None)
        )
        assert run.entry_manifest("clean")["status"] == "done"
        assert run.entry_manifest("noisy") is None

        result = run_campaign(
            spec, store=interrupted, jobs="batch", log=lambda _: None
        )
        assert [o.status for o in result.outcomes] == ["cached", "ran"]
        for entry_id in ("clean", "noisy"):
            assert entry_rows_bytes(
                interrupted, "tiny", entry_id
            ) == entry_rows_bytes(reference, "tiny", entry_id)

    def test_failed_entry_recorded_and_rerun(self, tmp_path):
        bad = CampaignSpec(
            name="bad",
            title="t",
            entries=(
                CampaignEntry(
                    scenario="count-interference",
                    id="ok",
                    overrides={
                        "sweep.axes.m": [2],
                        "sweep.axes.activity": [0.0],
                    },
                    trials=2,
                ),
                # Unknown metric: resolves fine, fails at run time.
                CampaignEntry(
                    scenario="count-interference",
                    id="boom",
                    overrides={"metrics": ["no_such_metric"]},
                    trials=2,
                ),
            ),
        )
        result = run_campaign(
            bad, store=tmp_path, jobs="batch", log=lambda _: None
        )
        assert [o.status for o in result.outcomes] == ["ran", "failed"]
        assert result.failed[0].error
        run = RunStore(tmp_path).latest_run("bad")
        manifest = run.entry_manifest("boom")
        assert manifest["status"] == "failed"
        assert "no_such_metric" in manifest["error"]
        # A resume keeps the finished entry and retries the failed one.
        result2 = run_campaign(
            bad, store=tmp_path, jobs="batch", log=lambda _: None
        )
        assert [o.status for o in result2.outcomes] == [
            "cached", "failed",
        ]

    def test_bad_entry_fails_before_any_execution(self, tmp_path):
        spec = CampaignSpec(
            name="doomed",
            title="t",
            entries=(
                CampaignEntry(scenario="count-interference", id="ok"),
                CampaignEntry(scenario="no-such-scenario", id="nope"),
            ),
        )
        with pytest.raises(HarnessError, match="unknown scenario"):
            run_campaign(spec, store=tmp_path, log=lambda _: None)
        assert RunStore(tmp_path).list_runs("doomed") == []

    def test_campaign_pool_matches_serial_rows(self, tmp_path):
        spec = tiny_campaign()
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        run_campaign(spec, store=serial, log=lambda _: None)
        result = run_campaign(
            spec, store=pooled, campaign_jobs=2, log=lambda _: None
        )
        assert [o.status for o in result.outcomes] == ["ran", "ran"]
        for entry_id in ("clean", "noisy"):
            assert entry_rows_bytes(
                pooled, "tiny", entry_id
            ) == entry_rows_bytes(serial, "tiny", entry_id)

    def test_seed_and_trials_precedence(self, tmp_path):
        spec = CampaignSpec(
            name="seeds",
            title="t",
            seed=3,
            trials=2,
            entries=(
                CampaignEntry(
                    scenario="count-interference",
                    id="pinned",
                    overrides={
                        "sweep.axes.m": [2],
                        "sweep.axes.activity": [0.0],
                    },
                    seed=11,
                    trials=5,
                ),
                CampaignEntry(
                    scenario="count-interference",
                    id="default",
                    overrides={
                        "sweep.axes.m": [2],
                        "sweep.axes.activity": [0.0],
                    },
                ),
            ),
        )
        run_campaign(spec, store=tmp_path, log=lambda _: None)
        run = RunStore(tmp_path).latest_run("seeds")
        pinned = run.entry_manifest("pinned")
        default = run.entry_manifest("default")
        # Explicit entry seed beats the campaign seed; entry trials
        # beat the campaign default.
        assert (pinned["seed"], pinned["trials"]) == (11, 5)
        assert (default["seed"], default["trials"]) == (3, 2)
        # An invocation-level trials override beats them all.
        run_campaign(
            spec, store=tmp_path, trials=1, log=lambda _: None
        )
        runs = RunStore(tmp_path).list_runs("seeds")
        assert len(runs) == 2  # the override landed in its own run dir
        smoke = RunStore(tmp_path).run("seeds", runs[-1])
        assert smoke.entry_manifest("pinned")["trials"] == 1

    def test_campaign_jobs_validation(self, tmp_path):
        with pytest.raises(HarnessError, match="campaign_jobs"):
            run_campaign(
                tiny_campaign(), store=tmp_path, campaign_jobs=0,
                log=lambda _: None,
            )


class TestStore:
    def test_completed_entry_requires_key_match(self, tmp_path):
        run_campaign(
            tiny_campaign(), store=tmp_path, log=lambda _: None
        )
        run = RunStore(tmp_path).latest_run("tiny")
        key = run.entry_manifest("clean")["key"]
        assert run.completed_entry("clean", key) is not None
        assert run.completed_entry("clean", "stale-key") is None

    def test_corrupt_rows_are_a_miss(self, tmp_path):
        run_campaign(
            tiny_campaign(), store=tmp_path, log=lambda _: None
        )
        run = RunStore(tmp_path).latest_run("tiny")
        (run.entry_dir("clean") / "rows.json").write_text("{broken")
        key = run.entry_manifest("clean")["key"]
        assert run.completed_entry("clean", key) is None

    def test_concurrent_writers_of_one_entry(self, tmp_path, monkeypatch):
        run = RunStore(tmp_path).run("tiny", "r1")
        table = ExperimentTable(
            experiment_id="EX", title="demo", rows=[{"x": 1, "y": 2.5}]
        )
        write_concurrently(
            monkeypatch,
            lambda: run.write_entry("clean", {"key": "k"}, table),
        )
        files = sorted(p.name for p in run.entry_dir("clean").iterdir())
        assert files == ["manifest.json", "rows.csv", "rows.json", "table.md"]
        assert run.completed_entry("clean", "k").rows == table.rows

    def test_latest_run_missing_campaign_raises(self, tmp_path):
        with pytest.raises(HarnessError, match="no stored runs"):
            RunStore(tmp_path).latest_run("ghost")

    def test_store_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "envstore"))
        assert RunStore().root == tmp_path / "envstore"


class TestReportAndDiff:
    @pytest.fixture()
    def stored(self, tmp_path):
        run_campaign(
            tiny_campaign(), store=tmp_path, jobs="batch",
            log=lambda _: None,
        )
        return tmp_path

    def test_report_contains_summary_and_tables(self, stored):
        run = RunStore(stored).latest_run("tiny")
        report = campaign_report(run)
        assert "# Campaign report — tiny @" in report
        assert "## Summary" in report
        assert "## clean" in report and "## noisy" in report
        assert "median_ratio" in report

    def test_write_report_outputs_md_and_csv(self, stored, tmp_path):
        run = RunStore(stored).latest_run("tiny")
        paths = write_report(run, tmp_path / "out")
        assert paths["markdown"].read_text().startswith(
            "# Campaign report"
        )
        header = paths["csv"].read_text().splitlines()[0]
        assert header.startswith("entry,scenario,status")

    def test_summary_rows_cover_all_entries(self, stored):
        run = RunStore(stored).latest_run("tiny")
        rows = summary_rows(run)
        assert [r["entry"] for r in rows] == ["clean", "noisy"]
        assert all(r["status"] == "done" for r in rows)

    def test_self_diff_is_identical(self, stored):
        md, identical = diff_refs(RunStore(stored), "tiny", "tiny")
        assert identical
        assert "Verdict: identical rows." in md

    def test_entry_diff_reports_deltas(self, stored):
        md, identical = diff_refs(
            RunStore(stored), "tiny:clean", "tiny:noisy"
        )
        assert not identical
        assert "activity (a)" in md and "Δ activity" in md
        assert "Verdict: runs differ." in md

    def test_manifests_with_backend_key_still_load(self, stored):
        """Runs stored while the engine had selectable array backends
        carry a ``backend`` key in the campaign manifest, each entry
        manifest and each entry's vitals. Report, gate and diff-runs
        read them exactly as they read current runs."""
        store = RunStore(stored)
        run = store.latest_run("tiny")
        clean, noisy = tiny_campaign().entries
        gated = CampaignSpec(
            name="tiny",
            title="tiny study",
            entries=(
                dataclasses.replace(clean, role="baseline"),
                dataclasses.replace(
                    noisy,
                    role="variant",
                    success_delta=SuccessDelta(metric="median_ratio"),
                ),
            ),
        )
        report = campaign_report(run)
        verdicts = evaluate_run(run, gated)

        run.write_manifest({**run.manifest(), "backend": "numpy"})
        for entry_id in ("clean", "noisy"):
            path = run.entry_dir(entry_id) / "manifest.json"
            manifest = json.loads(path.read_text())
            manifest["backend"] = "numpy"
            manifest["vitals"]["backend"] = "numpy"
            path.write_text(json.dumps(manifest))

        assert campaign_report(run) == report
        assert evaluate_run(run, gated) == verdicts
        assert diff_refs(store, "tiny", "tiny")[1]
        assert not diff_refs(store, "tiny:clean", "tiny:noisy")[1]

    def test_run_vs_entry_mix_rejected(self, stored):
        with pytest.raises(HarnessError, match="cannot diff"):
            diff_refs(RunStore(stored), "tiny", "tiny:clean")

    def test_unknown_entry_names_alternatives(self, stored):
        with pytest.raises(HarnessError, match="no entry"):
            load_ref(RunStore(stored), "tiny:nope")

    def test_path_references_resolve(self, stored):
        store = RunStore(stored)
        run = store.latest_run("tiny")
        ref = load_ref(store, str(run.path))
        assert ref.run.campaign == "tiny"
        entry_ref = load_ref(store, str(run.entry_dir("clean")))
        assert entry_ref.entry_id == "clean"

    def test_explicit_run_id_reference(self, stored):
        store = RunStore(stored)
        run_id = store.list_runs("tiny")[-1]
        ref = load_ref(store, f"tiny@{run_id}")
        assert ref.run.run_id == run_id
        with pytest.raises(HarnessError, match="no stored run"):
            load_ref(store, "tiny@s9-aaaaaaaaaa")


@pytest.mark.integration
class TestTrafficModelsAcceptance:
    """The ISSUE's pinned criterion: markov vs poisson from the store."""

    def test_stock_traffic_models_reports_without_reexecution(
        self, tmp_path, monkeypatch
    ):
        run_campaign(
            "traffic-models",
            trials=1,
            jobs="batch",
            store=tmp_path,
            log=lambda _: None,
        )

        # From here on, any execution attempt is a test failure: the
        # report and diff must come from the store alone.
        def forbid(*args, **kwargs):  # pragma: no cover — must not run
            raise AssertionError("report/diff re-executed a scenario")

        monkeypatch.setattr(orchestrate, "run_scenario", forbid)
        store = RunStore(tmp_path)
        report = campaign_report(store.latest_run("traffic-models"))
        assert "markov" in report and "poisson" in report
        assert "success" in report

        md, identical = diff_refs(
            store, "traffic-models:markov", "traffic-models:poisson"
        )
        assert not identical
        # The occupancy sweep aligns on the activity axis; the traffic
        # model column is the controlled difference.
        assert "model (a)" in md
        assert "markov" in md and "poisson" in md
        assert "activity" in md

    def test_campaign_cli_trials_run_is_disjoint_from_default(
        self, tmp_path
    ):
        spec = get_campaign("traffic-models")
        assert run_id_for(spec, 0, 1) != run_id_for(spec, 0, None)


class TestCampaignFiles:
    def test_example_campaign_files_load(self):
        from repro.campaigns import load_campaign_file

        tiny = load_campaign_file("examples/campaigns/tiny_suite.json")
        assert tiny.name == "tiny-suite"
        assert tiny.entry_ids() == ["counts-clean", "counts-noisy"]
        traffic = load_campaign_file(
            "examples/campaigns/traffic_small.json"
        )
        assert traffic.entry_ids() == ["markov", "poisson"]

    def test_campaign_file_round_trip(self, tmp_path):
        from repro.campaigns import load_campaign_file

        spec = tiny_campaign()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(campaign_to_dict(spec)))
        assert load_campaign_file(path) == spec


def _killed_worker(payload):  # module-level: must pickle by reference
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


class TestReviewRegressions:
    def test_dead_pool_worker_records_failure_not_crash(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            orchestrate, "_execute_entry", _killed_worker
        )
        result = run_campaign(
            tiny_campaign(), store=tmp_path, campaign_jobs=2,
            log=lambda _: None,
        )
        assert [o.status for o in result.outcomes] == [
            "failed", "failed",
        ]
        assert all("worker died" in o.error for o in result.outcomes)
        run = RunStore(tmp_path).latest_run("tiny")
        assert run.manifest()["status"] == "partial"

    def test_diff_ignores_stale_rows_behind_failed_manifest(
        self, tmp_path
    ):
        run_campaign(
            tiny_campaign(), store=tmp_path, log=lambda _: None
        )
        run = RunStore(tmp_path).latest_run("tiny")
        # Simulate: the entry most recently failed, but an older
        # success left rows.json behind.
        manifest = run.entry_manifest("clean")
        run.write_failed_entry("clean", manifest, "boom")
        md, identical = diff_refs(
            RunStore(tmp_path), "tiny:clean", "tiny:noisy"
        )
        assert not identical
        assert "No completed rows" in md

    def test_campaign_file_string_trials_fails_cleanly(self):
        with pytest.raises(HarnessError, match="must be an integer"):
            campaign_from_dict(
                {
                    "name": "x",
                    "entries": [
                        {"scenario": "count-interference",
                         "trials": "not-a-number"},
                    ],
                }
            )
        # Integral strings coerce (JSON written by other tools).
        spec = campaign_from_dict(
            {
                "name": "x",
                "trials": "4",
                "entries": [{"scenario": "count-interference"}],
            }
        )
        assert spec.trials == 4

    def test_list_valued_overrides_rejected_cleanly(self):
        with pytest.raises(HarnessError, match="overrides must be"):
            campaign_from_dict(
                {
                    "name": "x",
                    "entries": [
                        {"scenario": "count-interference",
                         "overrides": ["sweep.axes.m=[2]"]},
                    ],
                }
            )

    def test_write_report_entry_scope_matches_printed_report(
        self, tmp_path
    ):
        from repro.campaigns import write_report

        run_campaign(
            tiny_campaign(), store=tmp_path / "s", log=lambda _: None
        )
        run = RunStore(tmp_path / "s").latest_run("tiny")
        paths = write_report(run, tmp_path / "out", entry_id="clean")
        text = paths["markdown"].read_text()
        assert text.startswith("# Entry report")
        assert "noisy" not in text
        assert paths["csv"].name == "rows.csv"
        header = paths["csv"].read_text().splitlines()[0]
        assert "median_ratio" in header

    def test_no_tmp_files_survive_a_completed_run(self, tmp_path):
        run_campaign(
            tiny_campaign(), store=tmp_path, log=lambda _: None
        )
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_campaign_name_must_be_a_slug(self):
        for bad in ("../evil", "has space", "a@b", "a:b", ""):
            with pytest.raises(HarnessError, match="slug|non-empty"):
                CampaignSpec(
                    name=bad,
                    title="t",
                    entries=(CampaignEntry(scenario="E1"),),
                )

    def test_corrupt_rows_shape_reruns_entry_on_resume(self, tmp_path):
        spec = tiny_campaign()
        run_campaign(spec, store=tmp_path, jobs="batch", log=lambda _: None)
        run = RunStore(tmp_path).latest_run("tiny")
        rows = run.entry_dir("clean") / "rows.json"
        payload = json.loads(rows.read_text())
        payload["rows"] = 42  # valid JSON, wrong shape
        rows.write_text(json.dumps(payload))
        result = run_campaign(
            spec, store=tmp_path, jobs="batch", log=lambda _: None
        )
        assert [o.status for o in result.outcomes] == ["ran", "cached"]

    def test_non_string_fields_fail_cleanly(self):
        with pytest.raises(HarnessError, match="entry 0 id must be"):
            campaign_from_dict(
                {"name": "x",
                 "entries": [{"scenario": "E1", "id": 3}]}
            )
        with pytest.raises(
            HarnessError, match="entry 0 scenario must be"
        ):
            campaign_from_dict({"name": "x", "entries": [{"scenario": 1}]})
        with pytest.raises(HarnessError, match="campaign name must be"):
            campaign_from_dict({"name": 3, "entries": ["E1"]})

    def test_string_tags_rejected_not_exploded(self):
        with pytest.raises(HarnessError, match="list of strings"):
            campaign_from_dict(
                {"name": "x", "entries": ["E1"], "tags": "paper"}
            )


def axed_campaign(ordering="factorial", order_seed=None, **kwargs):
    """A cheap $axis-stamped campaign: one template over a 2x2 grid."""
    return CampaignSpec(
        name="axed",
        title="axed study",
        axes={"m": [2, 4], "activity": [0.0, 0.5]},
        ordering=ordering,
        order_seed=order_seed,
        trials=2,
        entries=(
            CampaignEntry(
                scenario="count-interference",
                id="grid",
                overrides={
                    "sweep.axes.m": ["$m"],
                    "sweep.axes.activity": ["$activity"],
                },
            ),
        ),
        **kwargs,
    )


class TestDesign:
    def test_factorial_stamping_ids_and_typed_substitution(self):
        design = expand_campaign(axed_campaign())
        assert design.entry_ids() == [
            "grid-2-0-0", "grid-2-0-5", "grid-4-0-0", "grid-4-0-5",
        ]
        first = design.entries[0]
        # The exact-token string becomes the *typed* axis value, not
        # its string rendering: [2], not ["2"].
        assert first.overrides == {
            "sweep.axes.m": [2],
            "sweep.axes.activity": [0.0],
        }
        assert design.entries[-1].overrides == {
            "sweep.axes.m": [4],
            "sweep.axes.activity": [0.5],
        }

    def test_expansion_is_idempotent(self):
        design = expand_campaign(axed_campaign())
        assert design.axes == {}
        assert design.ordering == "factorial"
        assert design.order_seed is None
        assert expand_campaign(design) == design

    def test_run_id_derives_from_declared_spec_not_expansion(self):
        spec = axed_campaign()
        assert run_id_for(spec, 0, None) != run_id_for(
            expand_campaign(spec), 0, None
        )

    def test_digest_covers_axes_and_ordering(self):
        base = campaign_digest(axed_campaign())
        assert campaign_digest(
            axed_campaign(ordering="shuffled", order_seed=1)
        ) != base
        narrowed = campaign_from_dict(
            {
                **campaign_to_dict(axed_campaign()),
                "axes": {"m": [2], "activity": [0.0, 0.5]},
            }
        )
        assert campaign_digest(narrowed) != base

    def test_axes_round_trip_through_dict(self):
        spec = axed_campaign(ordering="shuffled", order_seed=9)
        back = campaign_from_dict(campaign_to_dict(spec))
        assert back == spec
        assert campaign_digest(back) == campaign_digest(spec)

    def test_shuffled_ordering_is_deterministic(self):
        """The acceptance pin: a fixed seed stamps an identical entry
        list twice; the permutation itself is pinned to the module's
        own Fisher-Yates so no library upgrade can move it."""
        once = expand_campaign(axed_campaign(ordering="shuffled"))
        twice = expand_campaign(axed_campaign(ordering="shuffled"))
        assert once.entries == twice.entries
        factorial_ids = expand_campaign(axed_campaign()).entry_ids()
        # order_seed is None -> falls back to the campaign seed (0).
        assert once.entry_ids() == seeded_shuffle(factorial_ids, 0)
        seeded = expand_campaign(
            axed_campaign(ordering="shuffled", order_seed=7)
        )
        assert seeded.entry_ids() == seeded_shuffle(factorial_ids, 7)
        assert sorted(seeded.entry_ids()) == sorted(factorial_ids)

    def test_seeded_shuffle_is_a_permutation_and_seed_sensitive(self):
        items = list(range(10))
        a = seeded_shuffle(items, 1)
        b = seeded_shuffle(items, 2)
        assert sorted(a) == items and sorted(b) == items
        assert a == seeded_shuffle(items, 1)
        assert a != b
        assert items == list(range(10))  # input untouched

    def test_blocked_groups_by_first_declared_axis(self):
        spec = CampaignSpec(
            name="blocked",
            title="t",
            axes={"m": [2, 4]},
            ordering="blocked",
            entries=(
                CampaignEntry(
                    scenario="count-interference",
                    id="plain",
                    overrides={"sweep.axes.m": [8]},
                ),
                CampaignEntry(
                    scenario="count-interference",
                    id="a",
                    overrides={"sweep.axes.m": ["$m"]},
                ),
                CampaignEntry(
                    scenario="count-interference",
                    id="b",
                    overrides={"sweep.axes.m": ["$m"]},
                ),
            ),
        )
        # Factorial would interleave by template (a-2, a-4, b-2, b-4);
        # blocked groups by axis value, non-referencing entries first.
        assert expand_campaign(spec).entry_ids() == [
            "plain", "a-2", "b-2", "a-4", "b-4",
        ]

    def test_unreferenced_axis_rejected(self):
        spec = CampaignSpec(
            name="dead",
            title="t",
            axes={"ghost": [1, 2]},
            entries=(
                CampaignEntry(scenario="count-interference", id="x"),
            ),
        )
        with pytest.raises(HarnessError, match="unreferenced axes"):
            expand_campaign(spec)

    def test_stamped_id_collision_rejected(self):
        spec = CampaignSpec(
            name="clash",
            title="t",
            axes={"m": [2]},
            entries=(
                CampaignEntry(
                    scenario="count-interference",
                    id="x",
                    overrides={"sweep.axes.m": ["$m"]},
                ),
                CampaignEntry(scenario="count-interference", id="x-2"),
            ),
        )
        with pytest.raises(HarnessError, match="duplicate entry ids"):
            expand_campaign(spec)

    def test_undeclared_tokens_pass_through(self):
        spec = CampaignSpec(
            name="passthru",
            title="t",
            entries=(
                CampaignEntry(
                    scenario="count-interference",
                    id="x",
                    overrides={"protocol.params.m": "$m"},
                ),
            ),
        )
        design = expand_campaign(spec)
        # $m names no declared axis: it stays a scenario-level
        # placeholder for the sweep scope downstream.
        assert design.entries[0].overrides == {
            "protocol.params.m": "$m"
        }

    def test_embedded_token_splices_as_text(self):
        spec = CampaignSpec(
            name="embed",
            title="t",
            axes={"activity": [0.5]},
            entries=(
                CampaignEntry(
                    scenario="count-interference",
                    id="x",
                    overrides={
                        "title": "act=$activity",
                        "sweep.axes.activity": ["$activity"],
                    },
                ),
            ),
        )
        entry = expand_campaign(spec).entries[0]
        assert entry.id == "x-0-5"
        assert entry.overrides["title"] == "act=0.5"
        assert entry.overrides["sweep.axes.activity"] == [0.5]

    def test_axis_validation(self):
        with pytest.raises(HarnessError, match="axis"):
            axed_campaign().__class__(
                name="x",
                title="t",
                axes={"Bad Name": [1]},
                entries=(CampaignEntry(scenario="E1"),),
            )
        with pytest.raises(HarnessError, match="axis"):
            CampaignSpec(
                name="x",
                title="t",
                axes={"m": []},
                entries=(CampaignEntry(scenario="E1"),),
            )
        with pytest.raises(HarnessError, match="ordering"):
            CampaignSpec(
                name="x",
                title="t",
                ordering="alphabetical",
                entries=(CampaignEntry(scenario="E1"),),
            )

    def test_axis_stamped_campaign_runs_and_resumes(self, tmp_path):
        spec = axed_campaign()
        result = run_campaign(
            spec, store=tmp_path, jobs="batch", log=lambda _: None
        )
        assert [o.status for o in result.outcomes] == ["ran"] * 4
        run = RunStore(tmp_path).latest_run("axed")
        assert run.entry_ids() == [
            "grid-2-0-0", "grid-2-0-5", "grid-4-0-0", "grid-4-0-5",
        ]
        result2 = run_campaign(
            spec, store=tmp_path, jobs="batch", log=lambda _: None
        )
        assert [o.status for o in result2.outcomes] == ["cached"] * 4

    def test_axis_stamped_interrupted_resume_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """The acceptance pin: a $axis-stamped campaign killed mid-run
        resumes bit-identically against an uninterrupted reference."""
        spec = axed_campaign()
        reference = tmp_path / "reference"
        interrupted = tmp_path / "interrupted"
        run_campaign(
            spec, store=reference, jobs="batch", log=lambda _: None
        )

        real_run_scenario = orchestrate.run_scenario
        calls = []

        def dying_run_scenario(*args, **kwargs):
            calls.append(1)
            if len(calls) >= 3:
                raise KeyboardInterrupt
            return real_run_scenario(*args, **kwargs)

        monkeypatch.setattr(
            orchestrate, "run_scenario", dying_run_scenario
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                spec, store=interrupted, jobs="batch",
                log=lambda _: None,
            )
        monkeypatch.setattr(
            orchestrate, "run_scenario", real_run_scenario
        )
        run = RunStore(interrupted).run(
            "axed", run_id_for(spec, 0, None)
        )
        assert run.entry_manifest("grid-2-0-0")["status"] == "done"
        assert run.entry_manifest("grid-4-0-5") is None

        result = run_campaign(
            spec, store=interrupted, jobs="batch", log=lambda _: None
        )
        assert sorted(o.status for o in result.outcomes) == [
            "cached", "cached", "ran", "ran",
        ]
        for entry_id in (
            "grid-2-0-0", "grid-2-0-5", "grid-4-0-0", "grid-4-0-5",
        ):
            assert entry_rows_bytes(
                interrupted, "axed", entry_id
            ) == entry_rows_bytes(reference, "axed", entry_id)


def gated_spec(rule, baselines=("base",), name="judged"):
    """A gated campaign skeleton for synthetic-store gate tests."""
    entries = [
        CampaignEntry(
            scenario="count-interference", id=bid, role="baseline"
        )
        for bid in baselines
    ]
    entries.append(
        CampaignEntry(
            scenario="count-interference",
            id="var",
            role="variant",
            success_delta=rule,
        )
    )
    return CampaignSpec(name=name, title="t", entries=tuple(entries))


def synthetic_run(store_dir, spec, rows_by_entry):
    """A hand-built stored run: campaign.json plus one done entry per
    rows list — full control over metric values, no execution."""
    run = RunStore(store_dir).run(spec.name, "s0-synthetic")
    design = expand_campaign(spec)
    run.write_campaign(
        {
            "campaign": campaign_to_dict(spec),
            "digest": campaign_digest(spec),
            "seed": 0,
            "trials": None,
            "entry_ids": design.entry_ids(),
        }
    )
    for entry_id, rows in rows_by_entry.items():
        run.write_entry(
            entry_id,
            {"scenario": "synthetic", "key": "k"},
            ExperimentTable(entry_id, entry_id, rows),
        )
    return run


class TestGateSemantics:
    def test_exact_tie_at_threshold_passes(self, tmp_path):
        """The rule is a floor, not a strict bound: margin == threshold
        passes; one epsilon tighter fails the same stored rows."""
        spec = gated_spec(
            SuccessDelta(metric="x", threshold=0.5)
        )
        run = synthetic_run(
            tmp_path,
            spec,
            {
                "base": [{"x": 1.0}, {"x": 2.0}],  # mean 1.5
                "var": [{"x": 2.0}, {"x": 2.0}],   # mean 2.0
            },
        )
        report = evaluate_run(run)
        assert report.status == "pass"
        verdict = report.verdicts[0]
        assert verdict.margin == pytest.approx(0.5)
        assert gate_exit_code(report) == 0
        # Same store, tightened rule: store-only re-judging flips it.
        tightened = gated_spec(
            SuccessDelta(metric="x", threshold=0.5000001)
        )
        report2 = evaluate_run(run, spec=tightened)
        assert report2.status == "fail"
        assert gate_exit_code(report2) == 1

    def test_decrease_direction_orients_margin(self, tmp_path):
        spec = gated_spec(
            SuccessDelta(
                metric="latency", direction="decrease", threshold=1.0
            )
        )
        run = synthetic_run(
            tmp_path,
            spec,
            {
                "base": [{"latency": 10.0}],
                "var": [{"latency": 8.0}],
            },
        )
        verdict = evaluate_run(run).verdicts[0]
        assert verdict.status == "pass"
        assert verdict.delta == pytest.approx(-2.0)
        assert verdict.margin == pytest.approx(2.0)

    def test_nan_metric_fails_not_errors(self, tmp_path):
        """An undefined metric (None -> NaN) cannot demonstrate the
        margin: that is a *fail* verdict, not an evaluation error."""
        spec = gated_spec(SuccessDelta(metric="x"))
        run = synthetic_run(
            tmp_path,
            spec,
            {
                "base": [{"x": 1.0}],
                "var": [{"x": None}, {"x": 5.0}],
            },
        )
        report = evaluate_run(run)
        verdict = report.verdicts[0]
        assert verdict.status == "fail"
        assert "NaN" in verdict.reason
        assert verdict.to_dict()["margin"] is None  # NaN -> None
        assert gate_exit_code(report) == 1

    def test_missing_baseline_entry_errors(self, tmp_path):
        spec = gated_spec(
            SuccessDelta(metric="x", baseline="ghost")
        )
        run = synthetic_run(
            tmp_path,
            spec,
            {"base": [{"x": 1.0}], "var": [{"x": 2.0}]},
        )
        report = evaluate_run(run)
        verdict = report.verdicts[0]
        assert verdict.status == "error"
        assert "ghost" in verdict.reason
        assert report.status == "error"
        assert gate_exit_code(report) == 2

    def test_unrun_entry_errors(self, tmp_path):
        spec = gated_spec(SuccessDelta(metric="x"))
        run = synthetic_run(
            tmp_path, spec, {"var": [{"x": 2.0}]}  # base never ran
        )
        verdict = evaluate_run(run).verdicts[0]
        assert verdict.status == "error"
        assert "no stored result" in verdict.reason

    def test_multi_baseline_pooling(self, tmp_path):
        """rule.baseline=None pools every role-baseline entry's rows
        into one column before aggregating."""
        spec = gated_spec(
            SuccessDelta(metric="x", threshold=0.0),
            baselines=("b1", "b2"),
        )
        run = synthetic_run(
            tmp_path,
            spec,
            {
                "b1": [{"x": 1.0}],
                "b2": [{"x": 3.0}],
                "var": [{"x": 2.0}],
            },
        )
        verdict = evaluate_run(run).verdicts[0]
        assert verdict.baselines == ("b1", "b2")
        assert verdict.baseline_value == pytest.approx(2.0)  # pooled mean
        assert verdict.status == "pass"  # tie at threshold 0
        # min-aggregation over the same pool: baseline min is 1.0.
        strict = gated_spec(
            SuccessDelta(metric="x", aggregation="min", threshold=1.0),
            baselines=("b1", "b2"),
        )
        verdict2 = evaluate_run(run, spec=strict).verdicts[0]
        assert verdict2.baseline_value == pytest.approx(1.0)
        assert verdict2.margin == pytest.approx(1.0)
        assert verdict2.status == "pass"

    def test_pinned_baseline_ignores_pool(self, tmp_path):
        spec = gated_spec(
            SuccessDelta(metric="x", baseline="b2"),
            baselines=("b1", "b2"),
        )
        run = synthetic_run(
            tmp_path,
            spec,
            {
                "b1": [{"x": 100.0}],
                "b2": [{"x": 1.0}],
                "var": [{"x": 2.0}],
            },
        )
        verdict = evaluate_run(run).verdicts[0]
        assert verdict.baselines == ("b2",)
        assert verdict.status == "pass"

    def test_missing_column_and_non_numeric_error(self, tmp_path):
        spec = gated_spec(SuccessDelta(metric="nope"))
        run = synthetic_run(
            tmp_path,
            spec,
            {"base": [{"x": 1.0}], "var": [{"x": 2.0}]},
        )
        verdict = evaluate_run(run).verdicts[0]
        assert verdict.status == "error"
        assert "no column" in verdict.reason

        textual = gated_spec(SuccessDelta(metric="x"), name="textual")
        run2 = synthetic_run(
            tmp_path,
            textual,
            {"base": [{"x": "fast"}], "var": [{"x": 2.0}]},
        )
        verdict2 = evaluate_run(run2).verdicts[0]
        assert verdict2.status == "error"
        assert "non-numeric" in verdict2.reason

    def test_corrupt_rows_behind_done_manifest_error(self, tmp_path):
        spec = gated_spec(SuccessDelta(metric="x"))
        run = synthetic_run(
            tmp_path,
            spec,
            {"base": [{"x": 1.0}], "var": [{"x": 2.0}]},
        )
        (run.entry_dir("base") / "rows.json").unlink()
        verdict = evaluate_run(run).verdicts[0]
        assert verdict.status == "error"
        assert "marked done" in verdict.reason
        # vouched_entry_table is the raising primitive underneath.
        with pytest.raises(StoreError, match="marked done"):
            run.vouched_entry_table("base")

    def test_error_outranks_fail_outranks_pass(self, tmp_path):
        from repro.campaigns import GateReport, GateVerdict

        rule = SuccessDelta(metric="x")

        def verdict(status):
            return GateVerdict(
                variant="v", baselines=("b",), rule=rule, status=status
            )

        def report(*statuses):
            return GateReport(
                campaign="c",
                run_id="r",
                verdicts=tuple(verdict(s) for s in statuses),
            )

        assert report("pass", "pass").status == "pass"
        assert report("pass", "fail").status == "fail"
        assert report("fail", "error").status == "error"
        assert report().status == "error"  # ungated: caller mistake
        assert gate_exit_code(report()) == 2

    def test_evaluate_requires_stored_campaign(self, tmp_path):
        run = RunStore(tmp_path).run("bare", "s0-x")
        with pytest.raises(HarnessError, match="no stored campaign"):
            evaluate_run(run)

    def test_verdict_table_shows_rule_and_status(self, tmp_path):
        spec = gated_spec(SuccessDelta(metric="x", threshold=0.5))
        run = synthetic_run(
            tmp_path,
            spec,
            {"base": [{"x": 1.0}], "var": [{"x": 2.0}]},
        )
        report = evaluate_run(run)
        table = verdict_table(report)
        assert "PASS" in table
        assert "mean(x) increase >= 0.5" in table
        assert "margin 1 >= 0.5" in table

    def test_report_includes_gate_section(self, tmp_path):
        from repro.campaigns import gate_section

        spec = gated_spec(SuccessDelta(metric="x"))
        run = synthetic_run(
            tmp_path,
            spec,
            {"base": [{"x": 1.0}], "var": [{"x": 2.0}]},
        )
        section = gate_section(run)
        assert section is not None
        assert "Gate verdict: **PASS**" in section
        report = campaign_report(run)
        assert "## Gates" in report
        # Ungated runs grow no section.
        plain = synthetic_run(
            tmp_path, tiny_campaign(), {"clean": [{"x": 1.0}]}
        )
        assert gate_section(plain) is None

    def test_gate_evaluation_is_store_only(self, tmp_path, monkeypatch):
        spec = gated_spec(SuccessDelta(metric="x"))
        run = synthetic_run(
            tmp_path,
            spec,
            {"base": [{"x": 1.0}], "var": [{"x": 2.0}]},
        )

        def forbid(*args, **kwargs):  # pragma: no cover — must not run
            raise AssertionError("gate evaluation executed a scenario")

        monkeypatch.setattr(orchestrate, "run_scenario", forbid)
        report = evaluate_run(run)
        assert report.passed
        # And it reproduces the identical verdict on a second pass.
        assert evaluate_run(run) == report


class TestGateSpecValidation:
    def test_variant_requires_rule(self):
        with pytest.raises(HarnessError, match="success_delta"):
            CampaignEntry(
                scenario="E1", id="v", role="variant"
            )

    def test_rule_requires_variant_role(self):
        with pytest.raises(HarnessError, match="role"):
            CampaignEntry(
                scenario="E1",
                id="b",
                role="baseline",
                success_delta=SuccessDelta(metric="x"),
            )

    def test_variant_requires_some_baseline(self):
        with pytest.raises(HarnessError, match="baseline"):
            CampaignSpec(
                name="x",
                title="t",
                entries=(
                    CampaignEntry(
                        scenario="E1",
                        id="v",
                        role="variant",
                        success_delta=SuccessDelta(metric="x"),
                    ),
                ),
            )

    def test_rule_field_validation(self):
        with pytest.raises(HarnessError, match="direction"):
            SuccessDelta(metric="x", direction="sideways")
        with pytest.raises(HarnessError, match="aggregation"):
            SuccessDelta(metric="x", aggregation="mode")
        with pytest.raises(HarnessError, match="threshold"):
            SuccessDelta(metric="x", threshold=-1.0)
        with pytest.raises(HarnessError, match="metric"):
            SuccessDelta(metric="")

    def test_unknown_role_rejected(self):
        with pytest.raises(HarnessError, match="role"):
            CampaignEntry(scenario="E1", id="x", role="control")

    def test_gated_round_trip(self):
        spec = gated_spec(
            SuccessDelta(
                metric="x",
                direction="decrease",
                threshold=2.5,
                aggregation="median",
                baseline="base",
            )
        )
        back = campaign_from_dict(campaign_to_dict(spec))
        assert back == spec
        assert back.gated()
        assert campaign_digest(back) == campaign_digest(spec)

    def test_unknown_rule_keys_rejected(self):
        with pytest.raises(HarnessError, match="success_delta"):
            campaign_from_dict(
                {
                    "name": "x",
                    "entries": [
                        {"scenario": "E1", "id": "b",
                         "role": "baseline"},
                        {
                            "scenario": "E1",
                            "id": "v",
                            "role": "variant",
                            "success_delta": {
                                "metric": "x", "zz": 1
                            },
                        },
                    ],
                }
            )


class TestGatedOrchestration:
    def test_run_campaign_judges_gates_and_persists_verdicts(
        self, tmp_path
    ):
        spec = CampaignSpec(
            name="selfgate",
            title="t",
            trials=2,
            entries=(
                CampaignEntry(
                    scenario="count-interference",
                    id="base",
                    role="baseline",
                    overrides={
                        "sweep.axes.m": [2],
                        "sweep.axes.activity": [0.0],
                    },
                ),
                CampaignEntry(
                    scenario="count-interference",
                    id="same",
                    role="variant",
                    overrides={
                        "sweep.axes.m": [2],
                        "sweep.axes.activity": [0.0],
                    },
                    # Identical workload, threshold 0: an exact tie,
                    # which must pass (the rule is a floor).
                    success_delta=SuccessDelta(
                        metric="median_ratio", threshold=0.0
                    ),
                ),
            ),
        )
        log = []
        result = run_campaign(
            spec, store=tmp_path, jobs="batch", log=log.append
        )
        assert result.gates is not None
        assert result.gates.passed
        assert any(
            "gate same: PASS" in line for line in log
        )
        run = RunStore(tmp_path).latest_run("selfgate")
        persisted = run.manifest()["gates"]
        assert persisted["status"] == "pass"
        assert persisted == result.gates.to_dict()
        # The store-only path agrees with the just-run verdict.
        assert evaluate_run(run).to_dict() == persisted

    def test_ungated_campaign_has_no_gates(self, tmp_path):
        result = run_campaign(
            tiny_campaign(), store=tmp_path, jobs="batch",
            log=lambda _: None,
        )
        assert result.gates is None
        run = RunStore(tmp_path).latest_run("tiny")
        assert "gates" not in run.manifest()


@pytest.mark.integration
class TestGateAcceptance:
    """The ISSUE's pinned criteria: the gated stock campaign passes
    through the CLI, flipping the declared direction fails it, and the
    stored run re-judges identically without execution."""

    def test_gated_stock_campaign_cli_flow(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        store = tmp_path / "store"
        cache = tmp_path / "cache"
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        base_argv = [
            "--trials", "1", "--jobs", "batch",
            "--store", str(store),
            "--cache", "--cache-dir", str(cache),
        ]

        code = main(
            ["run-campaign", "cseek-vs-naive", *base_argv, "--gate"]
        )
        first = capsys.readouterr().out
        assert code == 0
        assert "Gate verdict: PASS" in first
        assert "cseek" in first
        # The CLI appended the verdict table to GITHUB_STEP_SUMMARY.
        assert "PASS" in summary.read_text()

        # Store-only re-judging: no execution allowed, identical
        # verdict table as the run that just passed.
        def forbid(*args, **kwargs):  # pragma: no cover — must not run
            raise AssertionError("gate re-executed a scenario")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orchestrate, "run_scenario", forbid)
            code = main(
                ["gate", "cseek-vs-naive", "--store", str(store)]
            )
        regate = capsys.readouterr().out
        assert code == 0
        table = [ln for ln in first.splitlines() if ln.startswith("|")]
        retable = [
            ln for ln in regate.splitlines() if ln.startswith("|")
        ]
        assert table and retable == table

        # Flip the declared direction: the same stored scenario rows
        # (replayed from the result cache) must now fail the gate with
        # exit 1.
        flipped = campaign_to_dict(get_campaign("cseek-vs-naive"))
        for entry in flipped["entries"]:
            if entry.get("role") == "variant":
                entry["success_delta"]["direction"] = "decrease"
        flipped_path = tmp_path / "flipped.json"
        flipped_path.write_text(json.dumps(flipped))
        code = main(
            ["run-campaign", str(flipped_path), *base_argv, "--gate"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "Gate verdict: FAIL" in out

    def test_run_campaign_without_gate_keeps_plain_exit(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        code = main(
            [
                "run-campaign", "cseek-vs-naive",
                "--trials", "1", "--jobs", "batch",
                "--store", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The orchestrator still logs the verdicts; the exit code just
        # does not depend on them without --gate.
        assert "gate cseek: PASS" in out
        assert "Gate verdict" not in out


class TestGateCli:
    def test_gate_rejects_entry_refs(self, tmp_path, capsys):
        from repro.cli import main

        spec = gated_spec(SuccessDelta(metric="x"))
        synthetic_run(tmp_path, spec, {"base": [{"x": 1.0}]})
        code = main(
            ["gate", "judged:base", "--store", str(tmp_path)]
        )
        assert code == 2
        assert "drop the :entry suffix" in capsys.readouterr().err

    def test_gate_on_ungated_campaign_errors(self, tmp_path, capsys):
        from repro.cli import main

        synthetic_run(
            tmp_path, tiny_campaign(), {"clean": [{"x": 1.0}]}
        )
        code = main(["gate", "tiny", "--store", str(tmp_path)])
        assert code == 2
        assert "no gates" in capsys.readouterr().err

    def test_gate_exit_codes_from_store(self, tmp_path, capsys):
        from repro.cli import main

        spec = gated_spec(SuccessDelta(metric="x", threshold=0.5))
        synthetic_run(
            tmp_path,
            spec,
            {"base": [{"x": 1.0}], "var": [{"x": 2.0}]},
        )
        assert main(["gate", "judged", "--store", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out

        failing = gated_spec(
            SuccessDelta(metric="x", threshold=9.0), name="failing"
        )
        synthetic_run(
            tmp_path,
            failing,
            {"base": [{"x": 1.0}], "var": [{"x": 2.0}]},
        )
        assert main(["gate", "failing", "--store", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

        broken = gated_spec(
            SuccessDelta(metric="nope"), name="broken"
        )
        synthetic_run(
            tmp_path,
            broken,
            {"base": [{"x": 1.0}], "var": [{"x": 2.0}]},
        )
        assert main(["gate", "broken", "--store", str(tmp_path)]) == 2
        assert "ERROR" in capsys.readouterr().out


class TestGatedExampleFile:
    def test_gated_example_loads_and_expands(self):
        from repro.campaigns import load_campaign_file

        spec = load_campaign_file(
            "examples/campaigns/gated_cseek.json"
        )
        assert spec.name == "gated-cseek"
        assert spec.gated()
        assert spec.ordering == "blocked"
        assert spec.axes == {"activity": (0.8,)}
        design = expand_campaign(spec)
        assert design.entry_ids() == ["naive-0-8", "cseek-0-8"]
        naive, cseek = design.entries
        assert naive.role == "baseline"
        assert naive.overrides["protocol.kind"] == "naive_discovery"
        assert naive.overrides["sweep.axes.activity"] == [0.8]
        assert cseek.role == "variant"
        assert cseek.success_delta.metric == "discovered_fraction"
        assert cseek.success_delta.threshold == 0.01
