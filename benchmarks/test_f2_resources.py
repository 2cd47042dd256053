"""F2 — Figure 2: the resource-doubling motivation study."""

from conftest import bench_apps, bench_n


def test_f2_resource_doubling(run_experiment):
    result = run_experiment("F2", apps=bench_apps(), n_insts=bench_n())
    # Paper shape: doubling everything nearly recovers SIE, and 2xALU is
    # the strongest single lever on average.
    assert result.mean("2xALU-2xRUU-2xWidths") < result.mean("DIE") / 3
    assert result.mean("2xALU") < result.mean("DIE")
    assert result.mean("2xALU") < result.mean("2xWidths")
