"""T2 — per-application SIE/DIE baseline table."""

from conftest import bench_apps, bench_n


def test_t2_baseline_characteristics(run_experiment):
    result = run_experiment("T2", apps=bench_apps(), n_insts=bench_n())
    sie, die = result.column("SIE IPC"), result.column("DIE IPC")
    for app in sie:
        assert sie[app] > 0
        assert die[app] <= sie[app] * 1.001
