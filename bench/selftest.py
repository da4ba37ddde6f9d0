#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, that the correctness gate passes, that the traced run's
cross-checks hold exactly, and that untraced operations run with every
wrapper removed.  Takes well under a minute.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    for var in run.BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.ROOT / "src"))
    import spans

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(table.items()))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")

    for name in run.WORKLOAD_NAMES:
        for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result, record = run.run(name, seed=1, seconds=0.0, trace=trace, smoke=True)
            tag = f"{name} trace={int(trace)}"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != table:
                problems.append(f"{tag}: metrics differ: {sorted(set(table) ^ set(got))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: gate failed: {result} {record['errors']}")
            zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
            if not trace and zero:
                problems.append(f"{tag}: end-to-end metrics read 0: {zero}")
            if trace:
                bad = [k for k, ok in record["crosschecks"].items() if not ok]
                if bad:
                    problems.append(f"{tag}: cross-checks failed: {bad}")
            if spans.wrappers_present():
                problems.append(f"{tag}: wrappers left installed")
            print(f"ran {tag}: attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
