"""A4 — clustered DIE alternatives vs DIE-IRB (extension study)."""

from conftest import bench_apps, bench_n


def test_a4_clustered_alternative(run_experiment):
    result = run_experiment("A4", apps=bench_apps(6), n_insts=bench_n(16_000))
    # Replicating a full FU complement per stream must beat splitting one.
    assert result.mean("Cluster x2") <= result.mean("Cluster/2")
