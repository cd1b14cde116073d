#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds through run.py, so the first run
takes a few minutes). It checks that:

  * every workload runs at its smallest size, untraced and traced, exits 0
    with "correct": true, and prints exactly the metrics BENCHMARK.json
    names, with their units;
  * on edit_reverify, every generated edit runs and every edit sampled for
    the cold-verify comparison is compared;
  * one flipped byte in the reference makes every workload report failed
    ops (failed_frac > 0) and exit non-zero;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.

Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "11", "--seconds", "1",
           "--trace", trace, *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = provenance = None
    try:
        if lines:
            result = json.loads(lines[-1])
        if len(lines) >= 2:
            provenance = json.loads(lines[-2]).get("provenance")
    except json.JSONDecodeError:
        pass
    return p.returncode, result, provenance, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace in ("0", "1"):
            code, res, prov, err = run(name, trace, "--smallest")
            what = f"{name} trace={trace} smallest"
            check(code == 0 and res is not None and res.get("correct") is True
                  and res.get("failed") == 0 and res.get("attempted", 0) >= 1,
                  f"{what}: exit 0, correct, no failed ops" + ("" if code == 0 else f" ({err[-300:]})"))
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys")
            units = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(units == expected[trace], f"{what}: metric names and units match BENCHMARK.json")
            if trace == "0":
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      f"{what}: every end-to-end metric is non-zero")
            if name == "edit_reverify":
                inputs = (prov or {}).get("inputs", {})
                check(inputs.get("edits_run") == inputs.get("distinct_edits")
                      and inputs.get("edits_checked_against_cold_verify")
                      == inputs.get("edits_sampled_for_cold_verify", -1),
                      f"{what}: every edit ran and every sampled edit was checked")
        code, res, _, _ = run(name, "0", "--smallest", "--corrupt-reference")
        check(code != 0 and res is not None and res.get("failed", 0) > 0
              and res.get("correct") is False,
              f"{name}: a flipped reference byte fails ops and exits non-zero")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bare = os.path.join(build_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cold_source",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    check(p.returncode != 0 and p.stdout.strip() == "",
          "without the repository's sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
