#!/usr/bin/env python3
"""Build and run the per-die benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload wafer_triage --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

The first call configures and builds the library and the diebench binary
into .bench_build/ (about a minute on 4 cores); later calls rebuild
incrementally.  The last stdout line of a run is the benchmark's JSON
result.  Exits non-zero, without a result, when the build fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("wafer_triage", "wafer_mc", "campaign_cliff")
RUN_TIMEOUT_S = 170


def build():
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "a") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                sys.stderr.write("perfbench: build failed:\n" + "\n".join(tail) + "\n")
                sys.exit(2)
    return BUILD / "diebench"


def source_provenance():
    """Git revision when the tree is a repository, plus a digest of src/."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def selftest(binary):
    """An injected output mismatch must be counted as a failed op."""
    r = subprocess.run([str(binary), "--workload", "wafer_triage", "--seed", "1",
                        "--seconds", "1", "--trace", "0", "--inject-fault"],
                       capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    result = json.loads(r.stdout.strip().splitlines()[-1])
    ok = r.returncode == 0 and result["failed"] >= 1 and result["correct"] is False
    print(f"selftest: injected fault -> correct={result['correct']} "
          f"failed={result['failed']} of attempted={result['attempted']}: "
          f"{'ok' if ok else 'NOT DETECTED'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, default="wafer_triage")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.selftest:
        return selftest(binary)
    print("# source " + json.dumps(source_provenance()), flush=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(BUILD / "scratch")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
