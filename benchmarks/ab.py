"""A/B comparison: alternating e2ebench runs of two fresh copies of the tree.

Run from the root of a checkout::

    python3 benchmarks/ab.py --workload serve-warm --seed 13 --pairs 10 \\
        --out results/BENCH_serve.json

The base side (``--base``, default ``HEAD``) is exported with ``git
archive``; the change side is the working tree (tracked and untracked
files, minus what ``.gitignore`` excludes).  Both land in fresh
directories, so neither carries a ``__pycache__`` the other lacks: with
``PYTHONDONTWRITEBYTECODE=1`` a stale cache alone moves ``setup_s``.

Each pair runs ``python3 e2ebench/run.py --workload W --seed S --trace T``
once per side, one run at a time; the side that goes first alternates
from pair to pair.  For every metric of the run's JSON line that
``BENCHMARK.json`` declares, the output holds each side's values, median,
quartiles and IQR, the per-pair ratios change / base, their median, and
how many pairs the change won.  A run whose ops are not all correct is
reported, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout


def export(rev: Optional[str], dest: Path) -> str:
    """Write a fresh copy of ``rev`` (``None``: the working tree) to
    ``dest``; returns what was copied."""
    dest.mkdir(parents=True)
    if rev is not None:
        archive = dest.with_suffix(".tar")
        archive.write_bytes(_git("archive", "--format=tar", rev))
        with tarfile.open(archive) as tar:
            tar.extractall(dest)
        archive.unlink()
        return _git("rev-parse", "--short", rev).decode().strip()
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in names.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    return "working tree"


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One e2ebench run in ``tree``; its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [
        sys.executable, "e2ebench/run.py",
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    proc = subprocess.run(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: Sequence[float]) -> dict:
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {
        "values": list(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
    }


def compare(runs: Dict[str, List[dict]], better: Dict[str, str]) -> Dict[str, dict]:
    """Per-metric sides, pair ratios and wins of the change."""
    out: Dict[str, dict] = {}
    for name in sorted(runs["base"][0]["metrics"]):
        if name not in better:
            continue
        values = {
            side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES
        }
        pairs = list(zip(values["base"], values["change"]))
        lower = better[name] == "lower"
        out[name] = {
            "better": better[name],
            "base": summarize(values["base"]),
            "change": summarize(values["change"]),
            "ratios": [c / b if b else None for b, c in pairs],
            "median_ratio": statistics.median(
                [c / b for b, c in pairs if b] or [float("nan")]
            ),
            "wins": sum(1 for b, c in pairs if (c < b if lower else c > b)),
        }
    return out


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the two copies go (default: a temp dir)")
    parser.add_argument("--out", type=Path, default=None, help="write the JSON here")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    work = Path(tempfile.mkdtemp(prefix="ab-", dir=args.workdir))
    try:
        trees = {side: work / side for side in SIDES}
        revs = {
            "base": export(args.base, trees["base"]),
            "change": export(None, trees["change"]),
        }
        runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(trees[side], args.workload, args.seed, args.trace)
                runs[side].append(result)
                print(f"pair {pair + 1}/{args.pairs} {side}: " + json.dumps(
                    {k: v["value"] for k, v in result["metrics"].items()}
                ), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = all(
        run["correct"] and run["failed"] == 0 for side in SIDES for run in runs[side]
    )
    report = {
        "command": "python3 benchmarks/ab.py " + " ".join(
            argv if argv is not None else sys.argv[1:]
        ),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pairs": args.pairs,
        "base": revs["base"],
        "change": revs["change"],
        "correct": correct,
        "metrics": compare(runs, better),
        "runs": runs,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n")
    for name, row in report["metrics"].items():
        print(
            f"{name:32s} base {row['base']['median']:10.4g} (IQR {row['base']['iqr']:.3g})"
            f"  change {row['change']['median']:10.4g}"
            f"  ratio {row['median_ratio']:.3f}  wins {row['wins']}/{args.pairs}"
        )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
