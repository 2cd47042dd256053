"""F7 — IRB size sweep."""

from conftest import bench_apps, bench_n


def test_f7_irb_size_sweep(run_experiment):
    result = run_experiment(
        "F7", apps=bench_apps(6), n_insts=bench_n(16_000)
    )
    reuse = list(result.column("mean reuse").values())
    # Bigger IRBs never reuse less (modulo small-sample noise).
    assert reuse[-1] >= reuse[0] - 0.01
