#!/usr/bin/env python3
"""Small-size self-check of the benchmark.

Runs every workload briefly (tiny suite, short windows) with tracing off and
on, and fails unless each run ends with a well-formed result line whose
output checks passed, reports every end-to-end metric of BENCHMARK.json with
its unit (non-zero) when untraced, and every per-layer metric with its unit
when traced, plus the tracing overhead. Takes about a minute:

    python3 perfbench/selfcheck.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layers each workload must show as busy (value > 0) in its traced run.
BUSY = {
    "automl_bo": ["automl.meta_phase_s", "automl.optimize_phase_s", "automl.server_self_s",
                  "fl.rounds", "fl.messages", "fl.fold_s", "fl.bytes_down",
                  "features.meta_features_s", "features.importance_s", "core.cpu_s"],
    "automl_random_tcp": ["automl.optimize_phase_s", "fl.codec_wire_s", "fl.round_parallelism",
                          "fl.bytes_up", "ml.fit_final_s", "core.cpu_us_per_op"],
    "serve_small_batched": ["net.ping_p50_ms", "serve.model_us_per_req",
                            "serve.codec_us_per_req", "serve.registry_load_ms", "core.cpu_s"],
    "serve_bulk_swap": ["net.ping_p50_ms", "serve.codec_us_per_req", "serve.swaps",
                        "serve.swap_lag_ms", "core.cpu_us_per_op"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=180)
    lines = done.stdout.decode(errors="replace").splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError("%s exited with %d" % (" ".join(cmd), done.returncode))
    return lines[:-1], json.loads(lines[-1])


def check(workload, trace, spec):
    text, result = run(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    assert result["correct"] is True, "%s: output checks failed:\n%s" % (where, "\n".join(text))
    assert result["attempted"] >= 1 and result["failed"] == 0, where
    assert any(line.startswith("check ") for line in text), where + ": no output checks"
    assert "verdict: outputs correct" in text, where
    assert any(line.startswith("provenance: ") for line in text), where
    declared = spec["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared), where
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], "%s: %s unit %s" % (where, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), where
        if not trace:
            assert got["value"] > 0, "%s: %s is %r" % (where, m["name"], got["value"])
    if trace:
        for name in BUSY[workload]:
            assert result["metrics"][name]["value"] > 0, "%s: %s idle" % (where, name)
        assert any("tracing overhead" in line for line in text), where
    print("ok   %s (%d metrics)" % (where, len(declared)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            try:
                check(workload, trace, spec)
            except (AssertionError, subprocess.TimeoutExpired, ValueError) as e:
                failures += 1
                print("FAIL %s --trace %d: %s" % (workload, trace, e))
    print("self-check %s" % ("passed" if failures == 0 else "FAILED (%d)" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
