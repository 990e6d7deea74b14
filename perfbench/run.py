"""Benchmark of the qflag CLI.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qflag is imported from its ``src``.  A
closed loop with one caller: each round of the workload's commands runs in a
fresh interpreter (``worker.py``), one command at a time, so memo tables,
start-up and peak memory are paid as every CLI invocation pays them.  A
round starts only if it would end within S seconds, were it as long as the
longest round so far; every run has at least two rounds.  Every stdout is
checked by ``checks``; a nonzero exit code or a failed check counts the
command's operations as failed, and the run goes on.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import probe
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WAIT_SECONDS = 170
SETUP_SAMPLES = 7
MIN_ROUNDS = 2  # a traced run needs one untraced and one traced round


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.spawned = 0
        self.texts = {}  # digest -> stdout, of every command run so far

    def spawn(self, commands, trace=False):
        """Start a worker; return (seconds from spawn to ready, result).
        Each record of the result gets the digest of its command's stdout.
        The seconds are at the reference speed (``probe``), as are the
        records' times that ``_normal_seconds`` reads."""
        self.spawned += 1
        plan_path = self.work / f"plan-{self.spawned}.json"
        result_path = self.work / f"result-{self.spawned}.json"
        err_path = self.work / f"stderr-{self.spawned}.txt"
        out_dir = self.work / f"out-{self.spawned}"
        out_dir.mkdir()
        plan = {
            "root": str(ROOT),
            "commands": commands,
            "out_dir": str(out_dir),
            "trace": trace,
        }
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), str(plan_path), str(result_path)],
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=err, text=True,
            )
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            try:
                proc.communicate(timeout=WAIT_SECONDS)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("a worker did not finish in time") from None
            rc = proc.returncode
        if line != "ready\n" or rc != 0:
            raise BenchError(f"worker failed (exit {rc}): {err_path.read_text()[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        for i, rec in enumerate(result["records"]):
            data = (out_dir / f"stdout-{i}.txt").read_bytes()
            rec["sha"] = hashlib.sha256(data).hexdigest()
            self.texts.setdefault(rec["sha"], data.decode("utf-8"))
        shutil.rmtree(out_dir)
        for path in (plan_path, err_path, result_path):
            path.unlink()
        ready = (ready - result["startup_spent_s"]) * probe.NOMINAL_S / result["startup_probe_s"]
        return ready, result


def _normal_seconds(rec):
    """A command's time at the reference speed of ``probe``."""
    return rec["seconds"] * probe.NOMINAL_S / rec["probe_s"]


def _round_seconds(rounds, n, seconds=_normal_seconds):
    """The time of one round, by default at the reference speed: each
    command's median time over the rounds, summed."""
    return sum(statistics.median(seconds(r["records"][i]) for r in rounds) for i in range(n))


def run(name, seed, seconds, trace, work):
    wl = workloads.WORKLOADS[name](seed, os.path.relpath(work, ROOT))
    cmds = wl.commands
    runner = Runner(work)

    prep_s = 0.0
    if wl.prepare:
        _, result = runner.spawn(wl.prepare)
        recs = result["records"]
        prep_s = sum(_normal_seconds(r) for r in recs[:wl.setup_commands])
        wl.set_cold([(r["rc"], runner.texts[r["sha"]]) for r in recs])

    texts = runner.texts
    verdicts = {}  # (command index, digest) -> problems
    first = [None] * len(cmds)
    setups, rounds = [], []
    start = time.perf_counter()
    longest = 0.0  # the longest round so far, with its worker start and checks
    while True:
        traced = trace and len(rounds) % 2 == 1
        began = time.perf_counter()
        if wl.cold_dir:
            shutil.rmtree(ROOT / wl.cold_dir, ignore_errors=True)
        ready, result = runner.spawn([c.argv for c in cmds], traced)
        setups.append(ready)
        for i, rec in enumerate(result["records"]):
            key = (i, rec["sha"])
            if key not in verdicts:
                verdicts[key] = checks.guarded(cmds[i].check, texts[rec["sha"]])
            if first[i] is None:
                first[i] = rec["sha"]
            elif rec["sha"] != first[i]:
                verdicts[key] = verdicts[key] + ["stdout differs from the same command's earlier stdout"]
        rounds.append({"traced": traced, **result})
        now = time.perf_counter()
        longest = max(longest, now - began)
        # start no round that would likely end after the run's time is up
        if len(rounds) >= MIN_ROUNDS and now - start + longest > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn([])[0])

    attempted = failed = 0
    for r in rounds:
        recs = r["records"]
        for i, (cmd, rec) in enumerate(zip(cmds, recs)):
            attempted += cmd.ops
            problems = list(verdicts[(i, rec["sha"])])
            if rec["rc"] != 0:
                problems.insert(0, f"exit code {rec['rc']}")
            if cmd.partner is not None and not checks.same_terms(
                texts[rec["sha"]], texts[recs[cmd.partner]["sha"]]
            ):
                problems.append("sigma_u * sigma_v and sigma_v * sigma_u differ")
            if problems:
                failed += cmd.ops
                print(f"FAILED {' '.join(cmd.argv)}: {'; '.join(problems[:3])}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    wall = _round_seconds(plain, len(cmds))
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        for r in traced_rounds:  # the round's span times, at the reference speed
            recs = r["records"]
            r["speed"] = sum(map(_normal_seconds, recs)) / sum(rec["seconds"] for rec in recs)
        # times are medians over the traced rounds; counts and ratios repeat
        # exactly from round to round, so the first round gives them
        metrics = {
            k: statistics.median(r["trace"][k] * r["speed"] for r in traced_rounds)
            if k.endswith("_s") else v
            for k, v in traced_rounds[0]["trace"].items()
        }
        metrics["trace_overhead_s"] = _round_seconds(traced_rounds, len(cmds)) - wall
    else:
        metrics = {
            "setup_s": prep_s + statistics.median(setups),
            "wall_s": wall,
            "ops_per_s": sum(c.ops for c in cmds) / wall,
            "peak_rss_mib": statistics.median(r["rss_kib"] for r in plain) / 1024,
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    # the same round time at the speed the machine had, for the log only
    raw = _round_seconds(plain, len(cmds), lambda rec: rec["seconds"])
    return result, len(rounds), raw


def unit_of(metric):
    fixed = {"ops_per_s": "ops/s", "peak_rss_mib": "MiB"}
    if metric in fixed:
        return fixed[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "bytes" if "bytes" in metric else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qflag" / "cli.py").is_file():
        print(f"error: no qflag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench-tmp"
    work = base / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, rounds, raw = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    for k, m in result["metrics"].items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} round time at the machine's speed during the run = {raw:.6g} s")
    print(f"{args.workload} rounds={rounds} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
