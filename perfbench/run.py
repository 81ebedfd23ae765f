#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds a Release build of the simulator libraries under src/ plus the
perfbench binary into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs one workload. The binary's last line
of standard output is the JSON result. Traced runs write their spans,
VeilTrace's Chrome export and its cycles-by-category table under
.bench_out/<workload>-seed<n>/.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("audit-attest", "enclave-fleet", "shielded-httpd")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "3"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return None
    return binary


def parse(argv):
    opts = {}
    i = 0
    while i < len(argv):
        key = argv[i]
        if key == "--self-test":
            opts["self-test"] = True
            i += 1
            continue
        if not key.startswith("--") or i + 1 >= len(argv):
            return None
        opts[key[2:]] = argv[i + 1]
        i += 2
    if "self-test" in opts:
        return opts
    if opts.get("workload") not in WORKLOADS or opts.get("trace") not in ("0", "1"):
        return None
    for key in ("seed", "seconds"):
        if not opts.get(key, "").isdigit():
            return None
    return opts


def main():
    opts = parse(sys.argv[1:])
    if opts is None:
        log("usage: run.py --workload <%s> --seed <n> --seconds <s> --trace <0|1> "
            "| --self-test" % "|".join(WORKLOADS))
        return 2
    binary = build()
    if binary is None:
        return 1
    if "self-test" in opts:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", opts["workload"], "--seed", opts["seed"],
               "--seconds", opts["seconds"], "--trace", opts["trace"]]
        if opts["trace"] == "1":
            out = os.path.join(ROOT, ".bench_out",
                               f"{opts['workload']}-seed{opts['seed']}")
            os.makedirs(out, exist_ok=True)
            cmd += ["--out", out]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
