"""A6 — value prediction vs reuse for the duplicate stream."""

from conftest import bench_apps, bench_n


def test_a6_value_prediction(run_experiment):
    result = run_experiment("A6", apps=bench_apps(6), n_insts=bench_n(16_000))
    # Both mechanisms must relieve DIE; neither may be pathological.
    assert result.mean("dup served (VP)") > 0.05
    assert result.mean("dup served (IRB)") > 0.05
