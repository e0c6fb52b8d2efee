"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload queries --seeds 1-10 --seconds 25

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between its first and third
quartiles as a share of the median, beside the bound ``BENCHMARK.json``
gives it. A benchmark is steady when every spread but that of ``setup_s``
stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    steady = True
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:<16} median {med:<12.5g} spread {spread:.4f}  bound {m['bound']}"
              f"  {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
