"""F11 — fault-injection coverage (Section 3.4)."""

from repro.redundancy import EXEC_DUP, EXEC_PRIMARY, FORWARD_BOTH

from conftest import bench_n


def test_f11_fault_coverage(run_experiment):
    result = run_experiment(
        "F11", apps=("gzip", "gcc"), n_insts=bench_n(12_000), faults_per_kind=4
    )
    coverage = result.column("coverage")
    assert coverage[EXEC_PRIMARY] == 1.0
    assert coverage[EXEC_DUP] == 1.0
    assert result.column("detected")[FORWARD_BOTH] == 0  # the conceded escape
