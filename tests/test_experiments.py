"""Smoke + semantics tests for every registered experiment.

Each experiment runs at a reduced scale (2 apps, few thousand
instructions) and must produce structurally valid, renderable results.
"""

import pytest

from repro.experiments import EXPERIMENTS, get_experiment

SMALL = dict(apps=("gzip", "ammp"), n_insts=4000)


class TestRegistry:
    def test_registry_is_complete(self):
        assert len(EXPERIMENTS) == 17
        assert {"T1", "T2", "F2", "F5", "F11"} <= set(EXPERIMENTS)

    def test_lookup_is_case_insensitive(self):
        assert get_experiment("f2").id == "F2"

    def test_unknown_id_lists_choices(self):
        with pytest.raises(KeyError, match="F2"):
            get_experiment("F99")


class TestTableExperiments:
    def test_t1_renders_machine(self):
        text = get_experiment("T1").run().render()
        assert "RUU / LSQ: 128 / 64" in text
        assert "1024 entries" in text

    def test_t2_reports_both_ipcs(self):
        result = get_experiment("T2").run(**SMALL)
        sie, die = result.column("SIE IPC"), result.column("DIE IPC")
        assert len(sie) == 2
        for app in sie:
            assert sie[app] >= die[app] > 0
        assert "gzip" in result.render()


class TestFigure2:
    def test_f2_has_all_eight_configs(self):
        from repro.experiments.fig2_resources import CONFIG_KEYS

        result = get_experiment("F2").run(**SMALL)
        assert result.headers[1:] == tuple(k.replace("DIE-", "") for k in CONFIG_KEYS)
        for key in result.headers[1:]:
            assert set(result.column(key)) == set(SMALL["apps"])

    def test_f2_full_doubling_nearly_recovers(self):
        result = get_experiment("F2").run(**SMALL)
        doubled, die = result.column("2xALU-2xRUU-2xWidths"), result.column("DIE")
        for app in SMALL["apps"]:
            assert doubled[app] <= die[app] + 1.0

    def test_f2_renders_average_row(self):
        assert "average" in get_experiment("F2").run(**SMALL).render()


class TestHeadline:
    def test_f5_recovery_fractions_bounded(self):
        result = get_experiment("F5").run(**SMALL)
        die, irb = result.column("DIE"), result.column("DIE-IRB")
        for app in SMALL["apps"]:
            assert irb[app] >= die[app] * 0.99
        assert "-0." not in f"{max(0.0, result.mean('overall-rec')):.2f}"

    def test_f6_rates_are_probabilities(self):
        result = get_experiment("F6").run(**SMALL)
        reuse, pc_hit = result.column("reuse"), result.column("PC-hit")
        for app in SMALL["apps"]:
            assert 0 <= reuse[app] <= pc_hit[app] <= 1


class TestSweeps:
    def test_f7_size_sweep_monotone_reuse(self):
        result = get_experiment("F7").run(sizes=(64, 1024), **SMALL)
        reuse = result.column("mean reuse")
        assert reuse[1024] >= reuse[64] - 0.01

    def test_f8_more_ports_less_starvation(self):
        result = get_experiment("F8").run(ports=(1, 8), **SMALL)
        starved = result.column("starved frac")
        assert starved[8] <= starved[1]

    def test_a3_latency_sweep_monotone(self):
        result = get_experiment("A3").run(latencies=(1, 12), **SMALL)
        loss = result.column("mean loss %")
        assert loss[12] >= loss[1] - 0.5

    def test_f9_variants_all_run(self):
        result = get_experiment("F9").run(**SMALL)
        variants = ("DM", "DM+CTR", "2-way", "4-way")
        assert result.headers[1:5] == tuple(f"reuse {v}" for v in variants)


class TestBreakdownAndAblations:
    def test_f10_fractions_sum_to_one(self):
        result = get_experiment("F10").run(**SMALL)
        via_irb, via_fu = result.column("dup via IRB"), result.column("dup via FU")
        for app in SMALL["apps"]:
            assert via_irb[app] + via_fu[app] == pytest.approx(1.0)

    def test_a1_name_based_never_reuses_more(self):
        result = get_experiment("A1").run(**SMALL)
        name, value = result.column("reuse (name)"), result.column("reuse (value)")
        for app in SMALL["apps"]:
            assert name[app] <= value[app] + 0.01

    def test_a2_speedups_positive(self):
        result = get_experiment("A2").run(**SMALL)
        sie, die = result.column("SIE-IRB speedup"), result.column("DIE-IRB speedup")
        for app in SMALL["apps"]:
            assert sie[app] > 0.9
            assert die[app] > 0.95


class TestFaultCoverage:
    def test_f11_exec_faults_fully_covered(self):
        result = get_experiment("F11").run(
            apps=("gzip",), n_insts=6000, faults_per_kind=2
        )
        from repro.redundancy import EXEC_DUP, EXEC_PRIMARY, FORWARD_BOTH

        coverage = result.column("coverage")
        assert coverage[EXEC_PRIMARY] == 1.0
        assert coverage[EXEC_DUP] == 1.0
        assert result.column("detected")[FORWARD_BOTH] == 0

    def test_f11_renders(self):
        result = get_experiment("F11").run(
            apps=("gzip",), n_insts=6000, faults_per_kind=1
        )
        assert "coverage" in result.render()
