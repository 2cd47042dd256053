"""F9 — CTR conflict-reduction and associativity."""

from conftest import bench_apps, bench_n


def test_f9_conflict_reduction(run_experiment):
    result = run_experiment("F9", apps=bench_apps(6), n_insts=bench_n(16_000))
    variants = ("DM", "DM+CTR", "2-way", "4-way")
    assert result.headers[1:5] == tuple(f"reuse {v}" for v in variants)
