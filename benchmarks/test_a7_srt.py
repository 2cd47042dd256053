"""A7 — instruction-level vs thread-level redundancy."""

from conftest import bench_apps, bench_n


def test_a7_srt_comparison(run_experiment):
    result = run_experiment("A7", apps=bench_apps(6), n_insts=bench_n(16_000))
    # Both redundancy styles must show real losses; DIE-IRB must improve
    # on plain DIE.
    assert result.mean("DIE") > 3
    assert result.mean("DIE-IRB") < result.mean("DIE")
