"""Rule modules; importing this package registers every rule."""

from . import (  # noqa: F401
    sl001_determinism,
    sl002_stats,
    sl003_config,
    sl004_sphere,
    sl005_frozen,
    sl006_output,
    sl100_suppressions,
    sl101_sor_taint,
    sl102_stats_paths,
    sl103_tracer_guard,
    sl104_registration,
)
