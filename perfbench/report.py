"""Run the benchmark over workloads and seeds, and print one table.

    python3 perfbench/report.py                      # BENCHMARK.json's workloads, seed 1
    python3 perfbench/report.py --seeds 1-10 --trace 0 --workloads cky
    python3 perfbench/report.py --workloads cky,programs,recursion --seeds 1-10 --out FILE

Each run is its own process (`run.py`), started one after another. The
end-to-end table has one row per workload and seed. With several seeds it
adds, per workload and metric, the median and the spread: the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median, next to the metric's bound in BENCHMARK.json. The
traced run (`--trace 1`, on the first seed only) prints every per-layer
metric with one column per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    print(f"# {workload} seed {seed} trace {trace}", file=sys.stderr)
    for line in lines[:-1]:
        if not line.startswith("  "):
            print(f"#   {line}", file=sys.stderr)
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="both")
    ap.add_argument("--out", help="also write every result to this JSON file")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = seed_list(args.seeds)
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    seconds = spec["run_seconds"]

    # the traced run is one run per workload, on the first seed
    results = [{"workload": w, "seed": s, "trace": t, "result": run(w, s, seconds, t)}
               for t in modes for w in workloads for s in (seeds if t == 0 else seeds[:1])]

    e2e = [m["name"] for m in spec["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    plain = [r for r in results if r["trace"] == 0]
    if plain:
        units = plain[0]["result"]["metrics"]
        print("end to end: " + ", ".join(f"{n} [{units[n]['unit']}]" for n in e2e))
        print(f"{'workload':10s} {'seed':>4s} {'ok':>9s} " + " ".join(f"{n[:12]:>12s}" for n in e2e))
        for r in plain:
            res = r["result"]
            print(f"{r['workload']:10s} {r['seed']:4d} "
                  f"{res['attempted'] - res['failed']:4d}/{res['attempted']:<4d} "
                  + " ".join(f"{res['metrics'][n]['value']:12.5g}" for n in e2e)
                  + ("" if res["correct"] else "  NOT CORRECT"))
    if len(seeds) > 1 and plain:
        print("\nmedian and quartile spread / bound over seeds "
              + ",".join(map(str, seeds)) + "; * marks a spread above a third of its bound")
        for w in workloads:
            cells = []
            for n in e2e:
                med, sp = spread([r["result"]["metrics"][n]["value"]
                                  for r in plain if r["workload"] == w])
                flag = "*" if sp > bounds[n] / 3 else " "
                cells.append(f"{n}={med:.4g} ({sp:.3f}/{bounds[n]}){flag}")
            print(f"{w}: " + "  ".join(cells))
    traced = [r for r in results if r["trace"] == 1 and r["seed"] == seeds[0]]
    if traced:
        names = list(traced[0]["result"]["metrics"])
        print(f"\nper layer, seed {seeds[0]}: " + " ".join(f"{r['workload']:>14s}" for r in traced))
        for n in names:
            unit = traced[0]["result"]["metrics"][n]["unit"]
            print(f"{n:28s} {unit:8s} "
                  + " ".join(f"{r['result']['metrics'][n]['value']:14.6g}" for r in traced))
    if args.out:
        Path(args.out).write_text(json.dumps({"run_seconds": seconds, "runs": results},
                                             indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
