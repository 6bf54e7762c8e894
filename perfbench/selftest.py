#!/usr/bin/env python3
"""Layer-attribution self-test of the benchmark's span breakdown.

    python3 perfbench/selftest.py

A fixed delay is injected into every search in one benchmark-side
wrapper: the HTTP Handler wrapper on http_session, the EngineResolver
wrapper on ingest_mixed. The delay must show in that layer's self time and
in search_p50_us, and in no other layer's self time. Runs are made at a low
offered rate so that the delay adds almost no queueing. Exits 0 when every
check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DELAY_US = 3000
RATE = 300
SECONDS = 20
SEED = 11

# workload -> (layer the delay lands in, the other layers that must not move)
CASES = {
    "http_session": ("self.net.handler_us",
                     ["self.net.request_us", "self.adaptive.search_us"]),
    "ingest_mixed": ("self.service.resolve_us",
                     ["self.service.search_us", "self.adaptive.search_us"]),
}


def run(workload, trace, delay_us):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", str(trace),
               "--rate", str(RATE), "--inject-delay-us", str(delay_us)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("selftest: %s run failed" % workload)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("selftest: %s run reported wrong output" % workload)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    failures = []
    for workload, (layer, others) in CASES.items():
        base = {**run(workload, 0, 0), **run(workload, 1, 0)}
        slow = {**run(workload, 0, DELAY_US), **run(workload, 1, DELAY_US)}
        checks = [(layer, 0.8 * DELAY_US, 1.5 * DELAY_US),
                  ("search_p50_us", 0.8 * DELAY_US, 1.5 * DELAY_US)]
        checks += [(other, -0.2 * DELAY_US, 0.2 * DELAY_US) for other in others]
        for name, low, high in checks:
            delta = slow[name] - base[name]
            ok = low <= delta <= high
            print("%-14s %-26s %9.1f -> %9.1f  delta %8.1f us  %s" %
                  (workload, name, base[name], slow[name], delta,
                   "ok" if ok else "FAIL"))
            if not ok:
                failures.append((workload, name))
    if failures:
        print("selftest: FAILED", failures)
        return 1
    print("selftest: the injected delay lands only in the named layer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
