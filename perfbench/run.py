#!/usr/bin/env python3
"""Fixed-work benchmark of the federated AutoML engine and the serving plane.

Builds perfbench/ (the repository's src/ libraries plus the fedfc_perfbench
program) into .bench_build/, runs one workload, and prints the program's
report followed by one JSON result line:

    python3 perfbench/run.py --workload automl_bo --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a layer a workload never calls reads 0). --workload all runs
every workload in turn. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "fedfc_perfbench")
OUT = os.path.join(BUILD, "out")
KB = os.path.join(ROOT, "fedfc_kb_96_16_42.csv")
WORKLOADS = ["automl_bo", "automl_random_tcp", "serve_small_batched", "serve_bulk_swap"]
RUN_TIMEOUT_S = 175


def source_digest():
    """Hash of every input of the build, so an unchanged tree skips make."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".py", ".md")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ tree next to perfbench/; nothing to build")
    stamp = os.path.join(BUILD, "source.sha256")
    digest = source_digest()
    if os.path.isfile(BINARY) and os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read() == digest:
                return
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "fedfc_perfbench", "-j", jobs])
    for attempt in range(2):
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                break
        else:
            break
        if attempt == 1:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            sys.exit("perfbench: build failed: " + " ".join(cmd))
        # A build tree configured from another checkout path: start afresh.
        shutil.rmtree(BUILD, ignore_errors=True)
    with open(stamp, "w") as f:
        f.write(digest)


def git_sha():
    sha = os.environ.get("FEDFC_GIT_SHA", "")
    if sha or not os.path.exists(os.path.join(ROOT, ".git")):
        return sha or "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        sha = done.stdout.decode().strip()
    except OSError:
        sha = ""
    return sha or "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_one(workload, seed, seconds, trace, smoke):
    if workload == "automl_bo" and not os.path.isfile(KB):
        # Rebuilding the knowledge base takes minutes; it must never turn
        # into set-up time silently.
        sys.exit("perfbench: the committed knowledge base %s is missing" % KB)
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--kb", KB, "--work-dir", OUT,
           "--git-sha", git_sha()]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        for name in os.listdir(OUT):  # Registries the run could not remove.
            if name.startswith("registry-"):
                shutil.rmtree(os.path.join(OUT, name), ignore_errors=True)
    lines = stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: %s exited with code %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    # Report exactly the metrics BENCHMARK.json declares for this mode.
    measured = result["metrics"]
    metrics = {}
    for m in declared_metrics(trace):
        name = m["name"]
        if name in measured:
            metrics[name] = measured[name]
        elif trace:
            print("note: %s is 0: %s does not exercise that layer" % (name, workload))
            metrics[name] = {"value": 0.0, "unit": m["unit"]}
        elif result["correct"]:
            print("error: %s did not report %s" % (workload, name))
            result["correct"] = False
    for name, m in measured.items():
        if name not in metrics:
            print("extra %s = %r %s" % (name, m["value"], m["unit"]))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-check; not a measurement")
    args = parser.parse_args()

    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        print("== %s (seed %d, %g s, tracing %s)" %
              (workload, args.seed, args.seconds, "on" if args.trace else "off"))
        results.append(run_one(workload, args.seed, args.seconds, args.trace == 1, args.smoke))
        sys.stdout.flush()
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        for workload, result in zip(workloads, results):
            print("%s: %s" % (workload, json.dumps(result)))
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results), "metrics": {}}))


if __name__ == "__main__":
    main()
