#!/usr/bin/env python3
"""End-to-end benchmark of the gcm library.

Run from the repository root:

    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 50 \
        --trace 0

Builds perfbench/ (the library from src/ plus the driver) into
.bench_build/, runs one workload, prints the driver's log, a host block
and every metric by name with its unit, and as the last line the result
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones
(see spec.py). Exits non-zero without a result when the build or the
run fails.

Other modes:
    --selftest        build and run the helper self-test, check the spec
                      and that BENCHMARK.json matches it
    --write-manifest  regenerate BENCHMARK.json from spec.py
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DEADLINE_S = 175.0

sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import spec  # noqa: E402


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_size():
    """Worker-pool size: GCM_THREADS when set, else 2; at most nproc.

    Two threads rather than every core: on a 4-vCPU virtual machine a
    pool as wide as the host left no core for the serving driver's
    thread and the host's own work, and doubled the spread of training
    and serving times between runs.
    """
    want = os.environ.get("GCM_THREADS", "").strip()
    n = int(want) if want.isdigit() and int(want) > 0 else 2
    return max(1, min(n, cpu_count()))


def build(target, timeout):
    """Configure once, then build `target`; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources (src/) not found next to "
                           "perfbench/")
    jobs = str(max(1, min(4, cpu_count())))
    start = time.monotonic()
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout)
    left = timeout - (time.monotonic() - start)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", target],
                   check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=max(1.0, left))
    return BUILD / target


def source_digest():
    """SHA-256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".hh", ".py",
                                                   ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_block(raw, pool):
    return {
        "nproc": cpu_count(),
        "pool": raw.get("pool", pool),
        "serve_pool": raw.get("serve_pool", "unknown"),
        "GCM_THREADS": os.environ.get("GCM_THREADS", ""),
        "build_type": raw.get("build_type", "unknown"),
        "compiler": raw.get("compiler", "unknown"),
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
    }


def run_workload(args):
    start = time.monotonic()
    binary = build("gcm_perfbench", DEADLINE_S - 20.0)
    pool = pool_size()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--pool", str(pool)]
    left = DEADLINE_S - (time.monotonic() - start)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, left), cwd=str(ROOT))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        raise RuntimeError("driver exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    values = {**raw["end_to_end"], **raw["per_layer"]}
    group = spec.PER_LAYER if args.trace else spec.END_TO_END
    missing = [m[0] for m in group if m[0] not in values]
    if missing:
        raise RuntimeError("driver did not report: " + ", ".join(missing))
    metrics = {}
    for name, unit, *_ in group:
        value = float(values[name])
        if not math.isfinite(value):
            raise RuntimeError("metric %s is not finite: %r" % (name, value))
        metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"host": host_block(raw, pool)}))
    # Every run prints the serving metrics too; --trace 1 reports them.
    shown = spec.END_TO_END + spec.SERVING if not args.trace else group
    for name, unit, *_ in shown:
        if name in values:
            print("%-40s %16.6g %s" % (name, float(values[name]), unit))
    for failure in raw["check_failures"]:
        print("check failed: " + failure)
    print(json.dumps({
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }))


def selftest():
    issues = spec.problems()
    for name, valid in (("serve_p99_ms.high", True), ("0-x", True),
                        ("a" * 64, True), ("", False), (".x", False),
                        ("a|b", False), ("a b", False), ("a" * 65, False)):
        if bool(spec.NAME_RE.match(name)) != valid:
            issues.append("name rule misjudges %r" % name)
    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.is_file():
        issues.append("BENCHMARK.json is missing")
    elif json.loads(manifest_path.read_text()) != spec.manifest():
        issues.append("BENCHMARK.json differs from spec.py; run "
                      "--write-manifest")
    elif manifest_path.stat().st_size > 64 * 1024:
        issues.append("BENCHMARK.json exceeds 64 KiB")
    for issue in issues:
        print("spec: " + issue)
    binary = build("gcm_perfbench_selftest", DEADLINE_S)
    rc = subprocess.run([str(binary)], timeout=60).returncode
    print("spec: %s" % ("ok" if not issues else "FAILED"))
    return 0 if rc == 0 and not issues else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args()
    try:
        if args.write_manifest:
            issues = spec.problems()
            if issues:
                raise RuntimeError("; ".join(issues))
            (ROOT / "BENCHMARK.json").write_text(
                json.dumps(spec.manifest(), indent=2) + "\n")
            return 0
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        run_workload(args)
        return 0
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
