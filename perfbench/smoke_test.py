#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload named in BENCHMARK.json at a tiny trace size, untraced
and traced, and asserts that the result line is well formed, correct, and
prints exactly the BENCHMARK.json metrics of that mode, each by name with
its declared unit. Also checks that the host facts are printed and that an
unknown workload is refused. Run from the repository root:

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
EXPECTED_WORKLOADS = {"sim-qa-day", "rt-qa-day", "rt-ceiling", "rt-sharded"}
HOST_KEYS = {"nproc", "compiler", "build_type", "kernel", "commit"}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.01"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT, timeout=600)
    assert proc.returncode == 0, "%s trace=%d exited %d" % (
        workload, trace, proc.returncode)
    return proc.stdout.splitlines()


def check(workload, trace, expected):
    lines = run(workload, trace)
    hosts = [l for l in lines if l.startswith("host: ")]
    assert len(hosts) == 1, "%s: no host line" % workload
    host = json.loads(hosts[0][len("host: "):])
    assert HOST_KEYS <= set(host), "%s: host facts %s" % (workload, host)

    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, "%s trace=%d incorrect" % (
        workload, trace)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(expected), "%s trace=%d: missing %s, extra %s" % (
        workload, trace, sorted(set(expected) - set(metrics)),
        sorted(set(metrics) - set(expected)))
    for name, unit in expected.items():
        assert sorted(metrics[name]) == ["unit", "value"], name
        assert metrics[name]["unit"] == unit, "%s: unit %s != %s" % (
            name, metrics[name]["unit"], unit)
        assert isinstance(metrics[name]["value"], (int, float)), name
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    assert set(workloads) == EXPECTED_WORKLOADS, workloads
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for workload in workloads:
        e2e = check(workload, 0, end_to_end)
        assert all(e2e[name]["value"] != 0 for name in end_to_end), (
            "%s: an end-to-end metric reads 0" % workload)
        layers = check(workload, 1, per_layer)
        if workload == "rt-ceiling":
            # Nothing plans and nothing is stolen or donated on one domain.
            for name in ("policy.plan_us_n", "policy.plan_share",
                         "runtime.plans_per_query", "runtime.steals",
                         "runtime.rebalances"):
                assert layers[name]["value"] == 0, name
        if workload.startswith("rt-"):
            assert layers["runtime.batch_occupancy"]["value"] == 1.0
        print("ok  %s" % workload)

    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "no-such-workload", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT)
    assert proc.returncode != 0 and not proc.stdout.strip()
    print("ok  unknown workload refused")


if __name__ == "__main__":
    main()
