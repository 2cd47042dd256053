"""A3 — IRB lookup-latency sensitivity."""

from conftest import bench_apps, bench_n


def test_a3_latency_sweep(run_experiment):
    result = run_experiment("A3", apps=bench_apps(6), n_insts=bench_n(16_000))
    loss = list(result.column("mean loss %").values())
    assert loss[-1] >= loss[0] - 0.5
