#!/usr/bin/env python3
"""Builds and runs the TDmatch benchmark (see README.md next to this file).

From the root of a checkout:

  python3 tdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 tdbench/run.py --workload all --seed 1 --seconds 15
      (all four workloads untraced in one process, then traced in another)
  python3 tdbench/run.py --test
      (the tests of the benchmark's pure helpers)
  python3 tdbench/run.py --compare A.json B.json
      (two result files; refused unless their stamps match but for commit)

The first run configures and builds tdmatch and the driver in Release
under $CARGO_TARGET_DIR (default .bench_build) of the checkout; later runs
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is always the driver's JSON result. Exits non-zero when the build,
an output check or the result's shape against BENCHMARK.json fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # per workload
WORKLOADS = 4


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "tdbench")


def build():
    """Configures (once) and builds the driver; returns its directory."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "tdbench", "tdbench_stats_test"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("tdbench: build failed: " + " ".join(cmd))
    return out


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the driver is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "bench", "tdbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_driver(out, args, trace, workload):
    cmd = [os.path.join(out, "tdbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if trace else "0",
           "--out-dir", os.path.join(os.path.dirname(out), "tdbench-out"),
           "--commit", source_id()]
    timeout = RUN_TIMEOUT_S * (WORKLOADS if workload == "all" else 1)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("tdbench: run exceeded %d s" % timeout)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        sys.exit("tdbench: driver exited with %d" % proc.returncode)
    return lines


def check_shape(result, trace):
    want = expected_metrics(trace)
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        sys.exit("tdbench: metrics %s do not match BENCHMARK.json %s"
                 % (sorted(got), sorted(want)))


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    sa = {k: v for k, v in a["stamp"].items() if k != "commit"}
    sb = {k: v for k, v in b["stamp"].items() if k != "commit"}
    if a["workload"] != b["workload"] or sa != sb:
        diff = sorted(k for k in set(sa) | set(sb) if sa.get(k) != sb.get(k))
        sys.exit("tdbench: stamps differ (%s); results are not comparable"
                 % (", ".join(diff) or "workload"))
    print("%s: %s vs %s" % (a["workload"], a["stamp"]["commit"],
                            b["stamp"]["commit"]))
    for name, m in a["metrics"].items():
        other = b["metrics"].get(name, {}).get("value")
        if other is None:
            continue
        ratio = other / m["value"] if m["value"] else float("nan")
        print("  %-28s %14.6g %14.6g  x%.3f %s"
              % (name, m["value"], other, ratio, m["unit"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()

    if args.compare:
        compare(*args.compare)
        return
    out = build()
    if args.test:
        sys.exit(subprocess.run([os.path.join(out, "tdbench_stats_test")])
                 .returncode)
    if not args.workload:
        p.error("--workload is required")

    traces = (0, 1) if args.workload == "all" else (args.trace,)
    for trace in traces:
        lines = run_driver(out, args, trace, args.workload)
        result = json.loads(lines[-1])
        if args.workload != "all":
            check_shape(result, trace)
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()
        if not result["correct"]:
            sys.exit(1)


if __name__ == "__main__":
    main()
