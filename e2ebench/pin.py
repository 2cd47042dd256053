"""Regenerate ``digests.json``, the pinned ``SimStats`` digests.

Run from the root of a checkout::

    python3 e2ebench/pin.py

For each workload seed S in ``scenarios.PINNED_SEEDS`` it records the
digest of every op of the first lap of ``f5-full`` and ``f5-sampled``
(the 12 apps at seed S) and of the ``serve-warm`` store population at
seed S.  The benchmark fails an op
whose digest differs from a pinned one, so a change that shifts any
simulated number shows.  Re-pin only for a change meant to alter
simulated results, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import scenarios
    from spans import Recorder

    digests = {name: {} for name in scenarios.WORKLOADS}
    tmp_root = ROOT / ".e2ebench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pin-", dir=tmp_root))
    try:
        for seed in scenarios.PINNED_SEEDS:
            for name in ("f5-full", "f5-sampled"):
                workload = scenarios.F5Campaign(name, seed, tmp / f"{name}-{seed}", Recorder())
                for i in range(len(scenarios.APP_NAMES)):
                    out = workload.op(i)
                    digests[name][f"{out['app']}@{out['seed']}"] = scenarios.stats_digest(
                        out["results"]
                    )
            serve = scenarios.ServeWarm("serve-warm", seed, tmp / f"serve-{seed}", Recorder())
            serve.close()
            digests["serve-warm"][str(seed)] = serve.digest
            print(f"seed {seed} pinned", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    with open(scenarios.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
