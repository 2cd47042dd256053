"""A5 — IRB forwarding ablation."""

from conftest import bench_apps, bench_n


def test_a5_forwarding_ablation(run_experiment):
    result = run_experiment("A5", apps=bench_apps(6), n_insts=bench_n(16_000))
    # Forwarding may only help, and the forgone IPC should be modest —
    # the paper's justification for omitting it.
    assert result.mean("forgone (pts)") >= -1.0
