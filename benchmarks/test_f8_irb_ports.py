"""F8 — IRB read-port sweep."""

from conftest import bench_apps, bench_n


def test_f8_irb_port_sweep(run_experiment):
    result = run_experiment(
        "F8", apps=bench_apps(6), n_insts=bench_n(16_000)
    )
    starved = list(result.column("starved frac").values())
    assert starved[-1] <= starved[0]
