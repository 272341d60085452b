#!/usr/bin/env python3
"""Build and run the pcal benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

Builds the engine from this checkout's sources into .bench_build/perfbench
(CMake + Ninja, Release), runs one workload and prints, as its last stdout
line, {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Exits non-zero,
without a result, when the build or the run fails.
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
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "pcal_perfbench")
TINY_ACCESSES = 20000  # self-test length; has its own reference digests


def fail(message):
    print("perfbench: error: " + message, file=sys.stderr)
    sys.exit(2)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env():
    """Keeps compiler and run temporaries inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    for need in ("CMakeLists.txt", "src", "examples"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no pcal source tree here (missing %s)" % need)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          env=child_env()).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, env=child_env()).returncode != 0:
        fail("build failed")


def commit_label():
    """The git commit when there is one, else a digest of the sources."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as f:
                    return f.read().strip()
        else:
            return ref
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_binary(args, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--root", ROOT, "--out", OUT, "--commit", commit_label()]
    proc = subprocess.run(cmd + args, stdout=subprocess.PIPE, text=True,
                          env=child_env(), timeout=175)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    return proc.returncode, lines


def result_of(lines):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("malformed result line")
    return result


def record_of(lines):
    return json.loads(lines[-2])["record"]


def expected_metrics(trace):
    bench = load_benchmark_json()
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def names_match(result, trace):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == expected_metrics(trace)


def run_once(opts):
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    code, lines = run_binary(args)
    if code != 0 or not lines:
        sys.exit(code or 1)
    result = result_of(lines)
    if not names_match(result, opts.trace):
        print("perfbench: printed metrics differ from BENCHMARK.json",
              file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result), flush=True)


def record_reference():
    bench = load_benchmark_json()
    for w in bench["workloads"]:
        for n in (None, TINY_ACCESSES):
            args = ["--workload", w["name"], "--record-reference"]
            if n:
                args += ["--accesses", str(n)]
            code, _ = run_binary(args)
            if code != 0:
                sys.exit(code)


def self_test():
    """The benchmark's own checks, at a tiny trace length."""
    checks = []

    def check(name, ok):
        checks.append((name, ok))
        print("self-test: %-58s %s" % (name, "ok" if ok else "FAILED"))

    def tiny(workload, seed=0, trace=0, extra=()):
        code, lines = run_binary(
            ["--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--trace", str(trace), "--accesses", str(TINY_ACCESSES),
             "--setups", "1"] + list(extra), echo=False)
        if code != 0:
            raise RuntimeError("%s exited %d" % (workload, code))
        return result_of(lines), record_of(lines)

    for w in load_benchmark_json()["workloads"]:
        result, _ = tiny(w["name"])
        check(w["name"] + ": correct at the default seed",
              result["correct"] and result["failed"] == 0)
        check(w["name"] + ": end-to-end names match BENCHMARK.json",
              names_match(result, 0))
        result, _ = tiny(w["name"], trace=1)
        check(w["name"] + ": traced run correct",
              result["correct"] and result["failed"] == 0)
        check(w["name"] + ": per-layer names match BENCHMARK.json",
              names_match(result, 1))

    result, _ = tiny("paper_grid", extra=["--perturb"])
    check("one-ulp perturbed row fails the check",
          not result["correct"] and result["failed"] >= 1 and
          result["metrics"]["ok_share"]["value"] < 1.0)

    _, base = tiny("paper_grid", seed=0)
    result, other = tiny("paper_grid", seed=7)
    check("seed 7 changes the inputs",
          other["input_digest"] != base["input_digest"])
    check("seed 7 passes the invariants",
          result["correct"] and result["failed"] == 0)

    failed = [name for name, ok in checks if not ok]
    print("self-test: %d/%d checks passed" % (len(checks) - len(failed),
                                              len(checks)))
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 reproduces the specs' own seeds")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite perfbench/reference/ at the default seed")
    opts = p.parse_args()

    if not (opts.self_test or opts.record_reference):
        names = [w["name"] for w in load_benchmark_json()["workloads"]]
        if opts.workload not in names:
            fail("--workload must be one of " + ", ".join(names))
        if opts.seed < 0 or opts.seconds < 1:
            fail("--seed must be >= 0 and --seconds >= 1")
    build()
    if opts.self_test:
        sys.exit(self_test())
    if opts.record_reference:
        record_reference()
        return
    run_once(opts)


if __name__ == "__main__":
    main()
