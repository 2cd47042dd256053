"""A1 — value-based vs name-based reuse."""

from conftest import bench_apps, bench_n


def test_a1_name_based_ablation(run_experiment):
    result = run_experiment("A1", apps=bench_apps(6), n_insts=bench_n(16_000))
    name, value = result.column("reuse (name)"), result.column("reuse (value)")
    for app in name:
        assert name[app] <= value[app] + 0.01
