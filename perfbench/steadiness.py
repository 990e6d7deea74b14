"""Run every workload over several seeds and show how steady each metric is.

Usage: python3 perfbench/steadiness.py [--seeds 1-10] [--trace 0|1]

Each run is ``run.py`` in its own process, one after another, over the
workloads and with the run length that BENCHMARK.json fixes.  For every
workload and metric this prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
and the share of failed operations of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values, shares = {}, set()
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            shares.add((result["failed"], result["attempted"]))
            print(f"{workload} seed {seed} ({elapsed:.0f} s): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()),
                  flush=True)
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"{workload}: failed shares {sorted({f / a for f, a in shares})}")
        for k, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(k)
            note = f"  bound {bound}" if bound is not None and args.trace == 0 else ""
            print(f"  {k:34s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
