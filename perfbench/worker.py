"""One round of a benchmark workload in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The worker imports qflag from the checkout's ``src`` directory, prints
``ready`` (the parent times start-up up to that line), then runs the plan's
commands one at a time through ``qflag.cli.main`` in this process.  The
speed probe of ``probe`` samples the import and every command.  Command
i's stdout goes to the file ``stdout-<i>.txt`` in the plan's output
directory, as a user's shell would send it to a file, so the worker holds
no earlier output in memory.  It writes the probe's mean sample and its own
time during start-up; the time (without the probe's), mean probe sample and
exit code of every command; its peak resident memory; and, when tracing,
the tracer's summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys

from probe import SpeedProbe

STARTUP_SAMPLES = 9  # the qflag import alone gets few timer samples


def run_command(cli, argv, path):
    with open(path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc


def main():
    with open(sys.argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    src = os.path.join(plan["root"], "src")
    sys.path.insert(0, src)
    probe = SpeedProbe()
    probe.start()
    import qflag.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"qflag was imported from {cli.__file__}, outside {src}")
    startup_probe_s = probe.stop(STARTUP_SAMPLES)
    startup_spent_s = probe.spent
    print("ready", flush=True)
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer(probe.clock)
        tracer.install()
    records = []
    for i, argv in enumerate(plan["commands"]):
        path = os.path.join(plan["out_dir"], f"stdout-{i}.txt")
        probe.start()
        t0 = probe.clock()
        rc = run_command(cli, argv, path)
        seconds = probe.clock() - t0
        probe_s = probe.stop()
        if tracer is not None:
            tracer.end_command(os.path.getsize(path))
        records.append({"rc": rc, "seconds": seconds, "probe_s": probe_s})
    result = {
        "startup_probe_s": startup_probe_s,
        "startup_spent_s": startup_spent_s,
        "records": records,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
    }
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
