"""A2 — the same IRB on SIE vs DIE (prior-work baseline)."""

from conftest import bench_apps, bench_n


def test_a2_sie_irb_baseline(run_experiment):
    result = run_experiment("A2", apps=bench_apps(), n_insts=bench_n())
    # Citron's point: reuse helps the balanced SIE core less than it
    # helps the bandwidth-starved DIE core, on average.
    sie_gain = result.mean("SIE-IRB speedup")
    die_gain = result.mean("DIE-IRB speedup")
    assert die_gain >= sie_gain - 0.01
