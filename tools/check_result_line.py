#!/usr/bin/env python3
"""Check the result line of one untraced bench/perf run.

Reads the run's stdout on stdin and checks its last line, the line a
benchmark driver reads: it must parse as JSON, say `correct: true` and
`failed: 0`, and carry under `metrics` every `end_to_end` metric that
BENCHMARK.json (in the working directory) names, each a finite number
above 0. Run from the repository root:

    out=$(bash bench/perf/run.sh --workload NAME --seconds 1 --trace 0)
    printf '%s\\n' "$out" | python3 tools/check_result_line.py NAME

Exits 0 when the line holds, 1 (naming what is wrong) when it does not,
2 on bad usage.
"""

import json
import math
import sys


def fail(workload, why):
    print(f"check_result_line: {workload}: {why}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        print("usage: python3 tools/check_result_line.py WORKLOAD < run-stdout", file=sys.stderr)
        sys.exit(2)
    workload = sys.argv[1]
    with open("BENCHMARK.json") as f:
        names = [m["name"] for m in json.load(f)["end_to_end"]]
    lines = sys.stdin.read().splitlines()
    if not lines:
        fail(workload, "the run printed nothing on stdout")
    try:
        line = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(workload, f"the last stdout line is not JSON ({e}): {lines[-1][:200]!r}")
    if not isinstance(line, dict):
        fail(workload, "the last stdout line is not a JSON object")
    if line.get("correct") is not True:
        fail(workload, f"correct is {line.get('correct')!r}, not true")
    if line.get("failed") != 0:
        fail(workload, f"failed is {line.get('failed')!r}, not 0")
    metrics = line.get("metrics")
    if not isinstance(metrics, dict):
        fail(workload, "no metrics object")
    for name in names:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(workload, f"metric {name} has no numeric value: {entry!r}")
        if not math.isfinite(value) or value <= 0:
            fail(workload, f"metric {name} is {value!r}, not a finite number above 0")
    print(f"check_result_line: {workload}: " + ", ".join(f"{n} {metrics[n]['value']:g}" for n in names))


if __name__ == "__main__":
    main()
