"""Tests for the simlint static analyzer (tools/simlint).

Each rule gets one known-bad fixture (must fire) and one known-good
fixture (must stay silent), plus suppression, reporter, CLI and
self-check coverage.  Fixtures live under ``tests/fixtures/simlint``.
"""

import ast
import collections
import json
import os
import subprocess
import sys

import pytest

from tools.simlint import run_paths
from tools.simlint.cli import main as cli_main
from tools.simlint.engine import run_analysis
from tools.simlint.framework import all_rules, get_rule
from tools.simlint.reporters import render_json, render_sarif, render_text

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "simlint")
SRC = os.path.join(REPO_ROOT, "src", "repro")

RULE_IDS = (
    "SL001",
    "SL002",
    "SL003",
    "SL004",
    "SL005",
    "SL006",
    "SL007",
    "SL100",
    "SL101",
    "SL102",
    "SL103",
    "SL104",
)


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def rule_hits(path: str, rule_id: str):
    return [v for v in run_paths([path], [rule_id])]


class TestRegistry:
    def test_all_rules_registered(self):
        assert [rule.id for rule in all_rules()] == list(RULE_IDS)

    def test_every_rule_has_summary(self):
        for rule in all_rules():
            assert rule.summary

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError):
            get_rule("SL999")


@pytest.mark.parametrize("rule_id", RULE_IDS)
class TestPerRuleFixtures:
    """One failing and one passing case per rule (acceptance criterion)."""

    def _paths(self, rule_id):
        stem = rule_id.lower()
        bad, good = fixture(f"{stem}_bad"), fixture(f"{stem}_good")
        if not os.path.isdir(bad):
            bad, good = bad + ".py", good + ".py"
        return bad, good

    def test_bad_fixture_fires(self, rule_id):
        bad, _ = self._paths(rule_id)
        assert rule_hits(bad, rule_id), f"{rule_id} silent on {bad}"

    def test_good_fixture_clean(self, rule_id):
        _, good = self._paths(rule_id)
        assert rule_hits(good, rule_id) == [], f"{rule_id} fired on {good}"


class TestRuleDetails:
    def test_sl001_catches_each_kind(self):
        messages = "\n".join(
            v.message for v in rule_hits(fixture("sl001_bad.py"), "SL001")
        )
        assert "time.time" in messages
        assert "random.random" in messages
        assert "unseeded" in messages
        assert "randint" in messages  # the from-import

    def test_sl002_typo_names_the_declared_class(self):
        violations = rule_hits(fixture("sl002_bad.py"), "SL002")
        typo = [v for v in violations if "hitz" in v.message]
        assert len(typo) == 1
        assert "PipeStats" in typo[0].message

    def test_sl002_dead_counter_reported_at_declaration(self):
        violations = rule_hits(fixture("sl002_bad.py"), "SL002")
        dead = [v for v in violations if "never_written" in v.message]
        assert len(dead) == 1
        assert "never written" in dead[0].message

    def test_sl003_annotated_param_and_self_config(self):
        messages = [v.message for v in rule_hits(fixture("sl003_bad.py"), "SL003")]
        assert any("widht" in m for m in messages)
        assert any("n_stages" in m for m in messages)

    def test_sl004_layering_and_pair_reads(self):
        messages = "\n".join(
            v.message for v in rule_hits(fixture("sl004_bad"), "SL004")
        )
        assert "redundancy-agnostic" in messages
        assert "pair-output comparison" in messages
        assert ".pair.result" in messages
        assert ".pair.output()" in messages

    def test_sl103_sees_typed_emit_calls(self, tmp_path):
        path = tmp_path / "stage.py"
        path.write_text(
            "NULL_TRACER = object()\n"
            "\n"
            "\n"
            "class Stage:\n"
            "    def unguarded(self, seq):\n"
            "        self.tracer.emit_inst('issue', 0, seq, 0, None, 0, None)\n"
            "\n"
            "    def guarded(self, seq):\n"
            "        tracer = self.tracer\n"
            "        if tracer is not NULL_TRACER:\n"
            "            tracer.emit_inst('issue', 0, seq, 0, None, 0, None)\n"
            "            tracer.emit_check(0, seq, True)\n"
        )
        hits = rule_hits(str(path), "SL103")
        assert [(v.line, "Stage.unguarded" in v.message) for v in hits] == [
            (6, True)
        ]

    def test_sl006_print_and_logging_both_flagged(self):
        messages = "\n".join(
            v.message for v in rule_hits(fixture("sl006_bad.py"), "SL006")
        )
        assert "bare print()" in messages
        assert "logging module is banned" in messages
        # Two prints + two logging imports.
        assert len(rule_hits(fixture("sl006_bad.py"), "SL006")) == 4

    def test_sl006_allowlists_the_cli_and_progress_reporter(self):
        cli = os.path.join(SRC, "cli.py")
        progress = os.path.join(SRC, "campaign", "progress.py")
        assert rule_hits(cli, "SL006") == []
        assert rule_hits(progress, "SL006") == []

    def test_sl007_flags_both_resolvers_and_names_the_method(self):
        violations = rule_hits(fixture("sl007_bad"), "SL007")
        messages = "\n".join(v.message for v in violations)
        assert "op_timing" in messages
        assert "op_latency" in messages
        assert "_issue" in messages
        assert "OP_META" in messages
        # One per call site: two stage methods plus the hot helper.
        assert len(violations) == 3

    def test_sl007_exempts_the_decoded_module(self):
        decoded = os.path.join(SRC, "core", "decoded.py")
        assert rule_hits(decoded, "SL007") == []

    def test_sl007_ignores_import_time_resolution(self):
        # The good fixture resolves op_timing at module level — sanctioned.
        assert rule_hits(fixture("sl007_good"), "SL007") == []

    def test_sl005_all_three_kinds(self):
        messages = "\n".join(
            v.message for v in rule_hits(fixture("sl005_bad.py"), "SL005")
        )
        assert "config.width" in messages
        assert "setattr" in messages
        assert "mutable default" in messages


class TestSuppression:
    def test_pragmas_silence_known_bad_code(self):
        assert run_paths([fixture("suppressed.py")]) == []

    @staticmethod
    def _findings(tmp_path, source: str):
        path = tmp_path / "module.py"
        path.write_text(source)
        return [(v.line, v.rule_id) for v in run_paths([str(path)])]

    def test_parse_line_pragmas(self, tmp_path):
        findings = self._findings(
            tmp_path,
            "import time\n"
            "def f(acc=[]): return time.time()  # simlint: disable=SL001,SL005\n"
            "t = time.time()\n",
        )
        # Both rules are silenced on the pragma line, and only there.
        assert findings == [(3, "SL001")]

    def test_pragma_naming_another_rule_leaves_finding(self, tmp_path):
        findings = self._findings(
            tmp_path, "import time\nt = time.time()  # simlint: disable=SL005\n"
        )
        assert sorted(findings) == [(2, "SL001"), (2, "SL100")]

    def test_parse_file_pragma(self, tmp_path):
        findings = self._findings(
            tmp_path,
            "# simlint: disable-file=SL001\n"
            "import time\n"
            "def f(acc=[]):\n"
            "    return time.time()\n",
        )
        # Every SL001 in the file is silenced; other rules still fire.
        assert findings == [(3, "SL005")]

    def test_bare_disable_silences_everything_on_line(self, tmp_path):
        source = "import time\ndef f(acc=[]): return time.time()\n"
        assert {rule for _, rule in self._findings(tmp_path, source)} == {
            "SL001",
            "SL005",
        }
        assert self._findings(
            tmp_path, source.replace("()\n", "()  # simlint: disable\n")
        ) == []


class TestReporters:
    def test_text_clean(self):
        assert render_text([]) == "simlint: clean"

    def test_text_lists_and_tallies(self):
        violations = run_paths([fixture("sl001_bad.py")], ["SL001"])
        text = render_text(violations)
        assert "sl001_bad.py:" in text
        assert f"SL001: {len(violations)}" in text

    def test_json_roundtrip(self):
        violations = run_paths([fixture("sl005_bad.py")], ["SL005"])
        payload = json.loads(render_json(violations))
        assert payload["count"] == len(violations) > 0
        first = payload["findings"][0]
        assert set(first) == {"path", "line", "col", "rule", "message"}
        assert first["rule"] == "SL005"


class TestCLI:
    def test_exit_zero_on_clean_tree(self):
        assert cli_main([fixture("sl001_good.py")]) == 0

    def test_exit_one_on_findings(self):
        assert cli_main([fixture("sl001_bad.py")]) == 1

    def test_exit_two_on_missing_path(self):
        assert cli_main([fixture("does_not_exist")]) == 2

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_rule_subset(self):
        # sl005_bad has no SL001 findings, so the subset run is clean.
        assert cli_main([fixture("sl005_bad.py"), "--rules", "SL001"]) == 0

    def test_module_invocation_matches_issue_command(self):
        """`python -m tools.simlint src/repro` is the documented interface."""
        result = subprocess.run(
            [sys.executable, "-m", "tools.simlint", "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_removed_engine_flags_are_usage_errors(self):
        for flag in (["--jobs", "2"], ["--cache-dir", "DIR"]):
            with pytest.raises(SystemExit) as exit_info:
                cli_main([fixture("sl001_good.py"), *flag])
            assert exit_info.value.code == 2


class TestSemanticLayer:
    """Units for the module graph, call graph and taint engine."""

    def _summaries(self, *paths):
        from tools.simlint.semantic import summarize_module

        out = {}
        for path in paths:
            with open(path) as handle:
                summary = summarize_module(path, handle.read())
            out[summary.module] = summary
        return out

    def test_module_name_for_path(self):
        from tools.simlint.semantic import module_name_for_path

        assert module_name_for_path("src/repro/core/pipeline.py") == (
            "repro.core.pipeline"
        )
        assert module_name_for_path("src/repro/reuse/__init__.py") == "repro.reuse"

    def test_module_graph_edges(self):
        from tools.simlint.semantic import ModuleGraph

        summaries = self._summaries(
            os.path.join(SRC, "redundancy", "die.py"),
            os.path.join(SRC, "redundancy", "checker.py"),
        )
        graph = ModuleGraph.build(
            [(s.path, s.module, s.imports) for s in summaries.values()]
        )
        # `from .checker import CommitChecker` → a project edge.
        assert "repro.redundancy.checker" in graph.imports["repro.redundancy.die"]
        assert "repro.redundancy.die" in graph.importers_of(
            "repro.redundancy.checker"
        )

    def test_call_graph_resolves_inherited_hooks(self):
        from tools.simlint.semantic import CallGraph

        summaries = self._summaries(
            os.path.join(SRC, "core", "pipeline.py"),
            os.path.join(SRC, "redundancy", "die.py"),
            os.path.join(SRC, "redundancy", "checker.py"),
        )
        graph = CallGraph(summaries)
        die = ("repro.redundancy.die", "DIEPipeline")
        assert graph.inherited_int_attr(die, "STREAMS") == 2
        fn = graph.functions["repro.redundancy.die.DIEPipeline._hook_commit"]
        resolved = {
            callee.qualname
            for call in fn.calls
            for callee in graph.resolve_call(fn, call)
        }
        # checker = self.checker; checker.check(...) resolves through the
        # attribute-type of the same-named alias.
        assert "repro.redundancy.checker.CommitChecker.check" in resolved
        # self._retire resolves to the base-class definition.
        assert "repro.core.pipeline.OOOPipeline._retire" in resolved

    def test_taint_witness_spans_modules(self):
        hits = run_paths([fixture("sl101_bad")], ["SL101"])
        assert len(hits) == 1
        witness = hits[0].witness
        assert witness, "SL101 finding must carry a witness path"
        assert "source" in witness[0][2]
        assert "sink" in witness[-1][2]
        files = {os.path.basename(path) for path, _, _ in witness}
        assert files == {"flow.py", "sink.py"}, "witness must cross modules"


class TestSinglePass:
    def test_each_analyzed_file_is_parsed_once(self, monkeypatch):
        real_parse = ast.parse
        counts: collections.Counter = collections.Counter()

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            counts[filename] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.chdir(REPO_ROOT)
        result = run_analysis(["src/repro"])
        assert len(result.files) > 50
        assert {path: counts[path] for path in result.files} == {
            path: 1 for path in result.files
        }


class TestExplainAndSarif:
    def test_explain_prints_interprocedural_witness(self, capsys):
        code = cli_main([fixture("sl101_bad"), "--explain", "SL101"])
        out = capsys.readouterr().out
        assert code == 1
        assert "source: inst.pair" in out
        assert "sink: inst.result = value" in out
        assert "passed to" in out

    @pytest.mark.parametrize("rule_id", ("SL102", "SL103", "SL104"))
    def test_explain_has_witness_for_every_semantic_rule(self, rule_id, capsys):
        stem = rule_id.lower()
        bad = fixture(f"{stem}_bad")
        if not os.path.isdir(bad):
            bad += ".py"
        assert cli_main([bad, "--explain", rule_id]) == 1
        out = capsys.readouterr().out
        # At least one indented witness hop under a finding line.
        assert "\n    " in out

    def test_sarif_document_shape(self):
        violations = run_paths([fixture("sl101_bad")], ["SL101"])
        doc = json.loads(render_sarif(violations))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert set(RULE_IDS) <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "SL101"
        assert result["codeFlows"][0]["threadFlows"][0]["locations"]
        uri = result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        assert uri.endswith("sink.py")


class TestExemptionRegistry:
    def test_registered_channels_cover_the_irb_delivery(self):
        from tools.simlint.exemptions import SANCTIONED_CHANNELS

        names = {channel.qualname for channel in SANCTIONED_CHANNELS}
        assert "CommitChecker.check" in names
        assert "DIEIRBPipeline._reuse_complete" in names
        for channel in SANCTIONED_CHANNELS:
            assert channel.rationale

    def test_exempted_findings_are_reported_separately(self):
        result = run_analysis([os.path.join(SRC, "telemetry", "record.py")])
        assert result.violations == []
        assert {v.rule_id for v in result.exempted} == {"SL103"}
        assert len(result.exempted) == 2

    def test_every_exemption_entry_is_live(self):
        result = run_analysis([SRC])
        assert result.unused_exemptions == []


class TestCampaignSubsystem:
    """The campaign layer's sanctioned wall-clock use stays contained.

    Provenance timing is allowed through exactly one suppressed line —
    the ``wall_clock`` helper in ``progress.py``.  Every module on the
    worker/scheduler code path must be rule-clean with no pragmas at
    all, so nothing non-deterministic can creep into simulation state.
    """

    CAMPAIGN = os.path.join(SRC, "campaign")
    WORKER_MODULES = ("__init__.py", "jobs.py", "keys.py", "store.py", "scheduler.py")

    def test_worker_modules_clean_without_any_pragma(self):
        for name in self.WORKER_MODULES:
            path = os.path.join(self.CAMPAIGN, name)
            with open(path) as handle:
                source = handle.read()
            assert "simlint: disable" not in source, f"{name} uses a pragma"
            assert run_paths([path]) == [], f"{name} has violations"

    def test_wall_clock_helper_is_the_only_suppression(self):
        path = os.path.join(self.CAMPAIGN, "progress.py")
        with open(path) as handle:
            lines = handle.read().splitlines()
        pragmas = [line for line in lines if "simlint: disable" in line]
        assert len(pragmas) == 1
        assert "time.perf_counter()" in pragmas[0]
        assert "disable=SL001" in pragmas[0]

    def test_progress_module_scans_clean_with_suppression(self):
        path = os.path.join(self.CAMPAIGN, "progress.py")
        assert run_paths([path]) == []


class TestSelfCheck:
    """The simulator source itself must satisfy every invariant."""

    def test_src_repro_is_clean(self):
        violations = run_paths([SRC])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_seeded_bad_fixtures_nonzero_via_cli(self):
        for stem in ("sl001", "sl002", "sl003", "sl005"):
            assert cli_main([fixture(f"{stem}_bad.py")]) == 1
        assert cli_main([fixture("sl004_bad")]) == 1
