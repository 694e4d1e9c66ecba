#!/usr/bin/env python3
"""Build the sublet benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload serve-point --seed 1 --seconds 10 --trace 0

The last line of standard output is the result JSON. See perfbench/README.md
for the workloads and metrics. Extra modes:

    --workload all          every workload once; prints all named metrics
    --repeat N              run the workload N times (seeds seed..seed+N-1)
                            and print each metric's median and quartiles
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["batch-infer", "serve-point", "serve-batch", "serve-epochs"]
BUILD_TYPE = "RelWithDebInfo"
KEEP_WORLDS = 2  # batch worlds (about 230 MB each) kept across runs


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(root):
    """Configure and build the benchmark and the sublet CLI; return paths."""
    cmake_dir = os.path.join(root, "cmake")
    log_path = os.path.join(root, "build.log")
    os.makedirs(root, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", cmake_dir, "-j", jobs,
         "--target", "perfbench", "sublet"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return (os.path.join(cmake_dir, "perfbench"),
            os.path.join(cmake_dir, "sublet", "tools", "sublet"))


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def environment(seed):
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "build_type": BUILD_TYPE,
            "commit": commit, "source_sha256": source_digest(), "seed": seed}


def prune_worlds(work, keep_seed):
    """Keep the batch world of `keep_seed` and the most recent others."""
    if not os.path.isdir(work):
        return
    worlds = [os.path.join(work, d) for d in os.listdir(work)
              if d.startswith("batch-") and d != "batch-%d" % keep_seed]
    worlds.sort(key=os.path.getmtime, reverse=True)
    for stale in worlds[KEEP_WORLDS - 1:]:
        subprocess.run(["rm", "-rf", stale], check=False)


def run_once(tools, root, workload, seed, seconds, trace, echo=True):
    """Run the benchmark once; return (exit code, report lines, result)."""
    bench, sublet = tools
    work = os.path.join(root, "work")
    prune_worlds(work, seed)
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work", work, "--sublet", sublet]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    if echo:
        for line in lines:
            print(line)
    return proc.returncode, lines, result


def record(root, workload, seed, trace, result, env):
    out = os.path.join(root, "results")
    os.makedirs(out, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (workload, seed, 1 if trace else 0)
    with open(os.path.join(out, name), "w") as f:
        json.dump({"workload": workload, "trace": bool(trace),
                   "environment": env, "result": result}, f, indent=1)


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def repeat(tools, root, args):
    """Steadiness mode: N runs on N seeds, then quartiles per metric."""
    values = {}
    units = {}
    for i in range(args.repeat):
        seed = args.seed + i
        code, lines, result = run_once(tools, root, args.workload, seed,
                                       args.seconds, args.trace, echo=False)
        if code != 0 or not result or not result["correct"]:
            print("\n".join(lines))
            sys.exit("perfbench: run with seed %d failed" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())))
    limit = bounds() if not args.trace else {}
    print("%-34s %14s %14s %14s %8s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = limit.get(name)
        print("%-34s %14.6g %14.6g %14.6g %7.1f%% %6s" %
              (name, q1, med, q3, 100 * spread,
               "" if bound is None else "%.2f" % bound))
        summary[name] = {"q1": q1, "median": med, "q3": q3,
                         "spread": spread, "unit": units[name]}
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "metrics": summary}))


def run_all(tools, root, args):
    """Every workload once, untraced; prints every named metric."""
    named = []
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        print("== %s" % workload)
        code, lines, result = run_once(tools, root, workload, args.seed,
                                       args.seconds, False)
        if code != 0 or not result:
            correct = False
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for line in lines:
            parts = line.split()
            if len(parts) == 4 and parts[1] == "=":
                named.append((workload, parts[0], parts[2], parts[3]))
    print("== named end-to-end metrics")
    for workload, name, value, unit in named:
        print("%-14s %-22s %16s %s" % (workload, name, value, unit))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": {
                          "%s/%s" % (w, n): {"value": float(v), "unit": u}
                          for w, n, v, u in named}}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()

    root = build_root()
    tools = build(root)
    if args.workload == "all":
        return run_all(tools, root, args)
    if args.repeat:
        return repeat(tools, root, args)
    env = environment(args.seed)
    code, _, result = run_once(tools, root, args.workload, args.seed,
                               args.seconds, args.trace)
    if result is None:
        sys.exit("perfbench: no result was printed (exit %d)" % code)
    record(root, args.workload, args.seed, args.trace, result, env)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
