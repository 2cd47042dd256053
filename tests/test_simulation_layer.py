"""Tests for the runner, metrics and reporting helpers."""

import pytest

from repro.simulation import (
    MODELS,
    format_table,
    geometric_mean,
    get_trace,
    ipc_loss_pct,
    recovered_fraction,
    run_workload,
    simulate,
    takes_irb_config,
)
from repro.simulation.metrics import arithmetic_mean
from repro.simulation.runner import make_pipeline


class TestRunner:
    def test_model_registry(self):
        assert {"sie", "die", "die-irb", "sie-irb"} <= set(MODELS)
        assert {"die-cluster-split", "die-cluster-repl"} <= set(MODELS)

    def test_unknown_model_rejected(self, gzip_trace):
        with pytest.raises(ValueError, match="unknown model"):
            simulate(gzip_trace, "quantum")

    def test_irb_config_rejected_for_plain_models(self, gzip_trace):
        from repro.reuse import IRBConfig

        with pytest.raises(ValueError):
            simulate(gzip_trace, "sie", irb_config=IRBConfig())

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_only_irb_models_take_an_irb_config(self, gzip_trace, model):
        from repro.reuse import IRBConfig

        irb_models = {"die-irb", "sie-irb", "die-irb-fwd"}
        assert takes_irb_config(model) == (model in irb_models)
        config = IRBConfig(entries=256)
        if model in irb_models:
            pipeline = make_pipeline(model, gzip_trace, irb_config=config)
            assert pipeline.irb.config is config
        else:
            with pytest.raises(ValueError, match="takes no IRB configuration"):
                make_pipeline(model, gzip_trace, irb_config=config)

    def test_trace_cache_returns_same_object(self):
        t1 = get_trace("gzip", 2000)
        t2 = get_trace("gzip", 2000)
        assert t1 is t2

    def test_trace_cache_distinguishes_params(self):
        assert get_trace("gzip", 2000) is not get_trace("gzip", 2001)

    def test_trace_cache_evicts_least_recently_used(self, monkeypatch):
        from repro.simulation import runner

        monkeypatch.setattr(runner, "_TRACE_CACHE", {})
        monkeypatch.setattr(runner, "_TRACE_CACHE_LIMIT", 2)
        hot = get_trace("gzip", 1000)
        get_trace("gzip", 1001)
        # Touch the older entry: it is now the most recently used...
        assert get_trace("gzip", 1000) is hot
        # ...so inserting a third trace must evict 1001, not 1000.
        get_trace("gzip", 1002)
        assert get_trace("gzip", 1000) is hot  # still cached
        assert list(runner._TRACE_CACHE) == [
            ("gzip", 1002, 1),
            ("gzip", 1000, 1),
        ]

    def test_run_workload_end_to_end(self):
        result = run_workload("gzip", model="sie", n_insts=2000)
        assert result.workload == "gzip"
        assert result.stats.committed == 2000
        assert result.ipc > 0

    def test_results_are_deterministic(self):
        a = run_workload("vpr", model="die", n_insts=3000)
        b = run_workload("vpr", model="die", n_insts=3000)
        assert a.stats.cycles == b.stats.cycles


class TestMetrics:
    def test_ipc_loss(self):
        assert ipc_loss_pct(2.0, 1.5) == pytest.approx(25.0)
        assert ipc_loss_pct(2.0, 2.0) == 0.0
        assert ipc_loss_pct(2.0, 2.5) == pytest.approx(-25.0)

    def test_ipc_loss_rejects_bad_baseline(self):
        with pytest.raises(ValueError):
            ipc_loss_pct(0.0, 1.0)

    def test_recovered_fraction(self):
        # DIE=1.0, bound=2.0, improved=1.5 -> half the gap recovered.
        assert recovered_fraction(1.0, 1.5, 2.0) == pytest.approx(0.5)
        assert recovered_fraction(1.0, 1.0, 2.0) == 0.0
        assert recovered_fraction(1.0, 2.0, 2.0) == 1.0

    def test_recovered_fraction_no_gap(self):
        assert recovered_fraction(2.0, 2.5, 2.0) == 0.0

    def test_means(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([0.0, 1.0])


class TestReporting:
    def test_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.234], ["bb", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.23" in text and "22.50" in text

    def test_table_title(self):
        text = format_table(["x"], [[1]], title="hello")
        assert text.startswith("hello")

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_bool_rendering(self):
        text = format_table(["flag"], [[True], [False]])
        assert "yes" in text and "no" in text
