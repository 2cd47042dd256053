"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "die-irb" in out and "F2" in out


class TestRun:
    def test_run_prints_ipc(self, capsys):
        assert main(["run", "gzip", "--n", "3000"]) == 0
        out = capsys.readouterr().out
        assert "IPC:" in out and "gzip on SIE" in out

    def test_run_irb_model_prints_reuse(self, capsys):
        assert main(["run", "gzip", "--model", "die-irb", "--n", "3000"]) == 0
        out = capsys.readouterr().out
        assert "reuse rate" in out and "pairs checked" in out

    def test_run_with_scaling(self, capsys):
        assert main(["run", "gzip", "--n", "3000", "--scale-alu", "2"]) == 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "crysis"])


class TestCompare:
    def test_compare_rows(self, capsys):
        assert main(["compare", "ammp", "--n", "3000"]) == 0
        out = capsys.readouterr().out
        assert "SIE" in out and "DIE-IRB" in out and "loss% vs SIE" in out


class TestExperiment:
    def test_experiment_runs(self, capsys):
        code = main(["experiment", "T1"])
        assert code == 0
        assert "RUU / LSQ" in capsys.readouterr().out

    def test_experiment_with_args(self, capsys):
        code = main(["experiment", "F6", "--apps", "gzip", "--n", "3000"])
        assert code == 0
        assert "gzip" in capsys.readouterr().out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "F99"]) == 2
        assert "F2" in capsys.readouterr().err

    def test_experiment_json_rows(self, capsys):
        import json

        code = main(["experiment", "F6", "--apps", "gzip", "--n", "3000", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["id"] == "F6"
        assert payload["title"]
        assert isinstance(payload["reconstructed"], bool)
        assert payload["rows"] and any("gzip" in row for row in payload["rows"])

    def test_experiment_json_matches_rendered_run(self, capsys):
        import json

        base = ["experiment", "F6", "--apps", "gzip", "--n", "3000"]
        assert main(base) == 0
        rendered = capsys.readouterr().out
        assert main(base + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # The same run serialized two ways: every row label is in the table.
        for row in payload["rows"]:
            assert str(row[0]) in rendered


class TestCompareModels:
    def test_custom_model_list(self, capsys):
        assert main(["compare", "gzip", "--n", "3000", "--models", "sie,srt,die-vp"]) == 0
        out = capsys.readouterr().out
        assert "SRT" in out and "DIE-VP" in out

    def test_sie_baseline_inserted(self, capsys):
        assert main(["compare", "gzip", "--n", "3000", "--models", "die"]) == 0
        assert "SIE" in capsys.readouterr().out

    def test_unknown_model_rejected(self, capsys):
        assert main(["compare", "gzip", "--models", "die,warp"]) == 2
        assert "warp" in capsys.readouterr().err

    def test_empty_model_list_rejected(self, capsys):
        assert main(["compare", "gzip", "--models", ","]) == 2
        assert "no models given" in capsys.readouterr().err


class TestFuzzModels:
    def test_empty_model_list_rejected(self, capsys):
        assert main(["fuzz", "--n", "1", "--no-store", "--models", ","]) == 2
        captured = capsys.readouterr()
        assert "no models given" in captured.err
        assert "fuzz:" not in captured.out


class TestCompareJson:
    def test_compare_json_rows(self, capsys):
        import json

        assert main(["compare", "gzip", "--n", "3000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "gzip"
        assert [m["model"] for m in payload["models"]] == ["sie", "die", "die-irb"]
        assert payload["models"][0]["loss_pct_vs_sie"] == 0.0
        assert all(m["ipc"] > 0 for m in payload["models"])


class TestExperimentSeed:
    def test_seed_changes_the_result(self, capsys):
        assert main(["experiment", "F6", "--apps", "gzip", "--n", "3000"]) == 0
        seed1 = capsys.readouterr().out
        assert main(
            ["experiment", "F6", "--apps", "gzip", "--n", "3000", "--seed", "7"]
        ) == 0
        seed7 = capsys.readouterr().out
        assert seed1 != seed7


class TestCampaignCommand:
    def test_campaign_matches_experiment_and_resumes(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        assert main(["experiment", "F5", "--apps", "gzip", "--n", "3000"]) == 0
        serial = capsys.readouterr().out
        args = [
            "campaign", "F5", "--apps", "gzip", "--n", "3000",
            "--jobs", "2", "--store-dir", store_dir, "--quiet",
        ]
        assert main(args) == 0
        first = capsys.readouterr()
        assert serial.strip() in first.out
        assert "0 store hit(s)" in first.err
        assert main(args) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "0 simulation(s) run" in second.err

    def test_campaign_multiple_ids(self, capsys, tmp_path):
        args = [
            "campaign", "F6", "F10", "--apps", "gzip", "--n", "3000",
            "--store-dir", str(tmp_path / "store"), "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "F6" in out and "F10" in out

    def test_campaign_no_store_runs_everything(self, capsys, tmp_path):
        args = [
            "campaign", "F6", "--apps", "gzip", "--n", "3000",
            "--no-store", "--quiet",
        ]
        assert main(args) == 0
        assert "0 store hit(s)" in capsys.readouterr().err
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "0 store hit(s)" in err and "0 simulation(s)" not in err

    def test_campaign_clear_store(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        base = [
            "campaign", "F6", "--apps", "gzip", "--n", "3000",
            "--store-dir", store_dir, "--quiet",
        ]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--clear-store"]) == 0
        err = capsys.readouterr().err
        assert "store cleared" in err and "0 store hit(s)" in err

    def test_campaign_unknown_id_fails_cleanly(self, capsys):
        assert main(["campaign", "F99"]) == 2
        assert "F2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["experiment", "F5", "--apps", "nosuch", "--n", "500"],
             "unknown workloads: nosuch"),
            (["campaign", "F5", "--apps", ",", "--n", "500", "--no-store"],
             "no workloads given"),
        ],
        ids=["experiment-unknown-apps", "campaign-empty-apps"],
    )
    def test_bad_apps_fail_cleanly(self, capsys, argv, message):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


class TestJsonOutput:
    def test_json_mode_emits_valid_json(self, capsys):
        import json

        assert main(["run", "gzip", "--n", "3000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["committed"] == 3000
        assert "ipc" in payload and payload["ipc"] > 0

    def test_json_mode_names_fu_classes(self, capsys):
        import json

        assert main(["run", "gzip", "--n", "3000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "INT_ALU" in payload["fu_issued"]


class TestStoreCommands:
    def warm(self, store_dir, backend="dir"):
        args = [
            "campaign", "F6", "--apps", "gzip", "--n", "3000",
            "--store-dir", store_dir, "--backend", backend, "--quiet",
        ]
        assert main(args) == 0

    def test_store_stats_table_and_json(self, capsys, tmp_path):
        import json

        store_dir = str(tmp_path / "store")
        self.warm(store_dir)
        capsys.readouterr()
        assert main(["store", "stats", "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "store: dir:" in out and "result:" in out and "total:" in out
        assert main(["store", "stats", "--store-dir", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"]["result"] >= 1
        assert payload["total_bytes"] > 0

    def test_store_gc_dry_run_then_real(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        self.warm(str(store_dir))
        capsys.readouterr()
        shard = next(p for p in store_dir.iterdir() if p.is_dir())
        torn = shard / ".tmp-crashed.json"
        torn.write_text("{ torn")
        assert main(["store", "gc", "--store-dir", str(store_dir), "--dry-run"]) == 0
        assert "would remove 1 item(s)" in capsys.readouterr().out
        assert torn.exists()
        assert main(["store", "gc", "--store-dir", str(store_dir)]) == 0
        assert "removed 1 item(s)" in capsys.readouterr().out
        assert not torn.exists()

    def test_store_migrate_then_sqlite_resume(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        self.warm(store_dir)  # grown through the plain dir backend
        capsys.readouterr()
        assert main(["store", "migrate", "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "indexed" in out and "0 entr" not in out
        # The migrated index answers a warm sqlite-backed campaign.
        args = [
            "campaign", "F6", "--apps", "gzip", "--n", "3000",
            "--store-dir", store_dir, "--backend", "sqlite", "--quiet",
        ]
        assert main(args) == 0
        assert "0 simulation(s) run" in capsys.readouterr().err

    def test_store_migrate_rejects_urls(self, capsys):
        url = "http://x:1"
        for argv in (
            ["store", "migrate", "--store-dir", url],
            ["campaign", "F6", "--apps", "gzip", "--n", "3000",
             "--store-dir", url, "--quiet"],
            ["serve", "--store-dir", url, "--port", "0", "--quiet"],
        ):
            assert main(argv) == 2
            assert "local store" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "validate", "--apps", "gzip", "--models", "sie",
             "--n", "3000"],
            ["fuzz", "--n", "1"],
        ],
        ids=["sample-validate", "fuzz"],
    )
    def test_url_store_creates_no_directory(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--store-dir", "http://host/store"]) == 2
        assert "local store" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSampleValidate:
    @pytest.mark.parametrize(
        "selection, message",
        [
            (["--apps", "gzip", "--models", ","], "no models given"),
            (["--apps", ","], "no workloads given"),
        ],
        ids=["empty-models", "empty-apps"],
    )
    def test_empty_selection_fails_cleanly(self, capsys, selection, message):
        argv = ["sample", "validate", "--n", "2000", "--no-store"] + selection
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "all gates passed" not in captured.err


class TestSamplingFlags:
    def test_removed_plan_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "F5", "--sample", "--k", "3"])
        assert excinfo.value.code == 2
        assert "--k" in capsys.readouterr().err
