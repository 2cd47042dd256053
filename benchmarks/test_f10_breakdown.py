"""F10 — duplicate-stream service breakdown."""

from conftest import bench_apps, bench_n


def test_f10_duplicate_breakdown(run_experiment):
    result = run_experiment("F10", apps=bench_apps(), n_insts=bench_n())
    die, irb = result.column("ALU util DIE"), result.column("ALU util DIE-IRB")
    for app in die:
        # The IRB must shed ALU work, not add it.
        assert irb[app] <= die[app] + 0.02
