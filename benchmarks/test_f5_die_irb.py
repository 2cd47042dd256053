"""F5 — headline: DIE-IRB recovers ALU-bandwidth loss."""

from conftest import bench_apps, bench_n


def test_f5_die_irb_headline(run_experiment):
    result = run_experiment("F5", apps=bench_apps(), n_insts=bench_n())
    # Paper: ~50% of the ALU-bandwidth gap, ~23% of the overall gap.
    assert result.mean("ALU-rec") > 0.15
    assert result.mean("overall-rec") > 0.05
