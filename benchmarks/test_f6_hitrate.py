"""F6 — IRB hit and reuse rates."""

from conftest import bench_apps, bench_n


def test_f6_irb_hit_rates(run_experiment):
    result = run_experiment("F6", apps=bench_apps(), n_insts=bench_n())
    assert result.mean("reuse") > 0.05
    pc_hit, reuse = result.column("PC-hit"), result.column("reuse")
    for app in reuse:
        assert pc_hit[app] >= reuse[app]
