#!/usr/bin/env python3
"""Build and run the drcm layered wall-time benchmark.

    python3 perfbench/run.py --workload order_deep|order_wide|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the library from
src/) under .bench_build/, runs one workload with DRCM_SPMSPV_ACC and
DRCM_THREADS unset, checks the exact counters against earlier runs of the
same seed and sources, prints every metric with its unit and sample count,
and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics. Exits 1 on any failed check, 2 when it cannot run.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
PINNED_ENV = ("DRCM_SPMSPV_ACC", "DRCM_THREADS")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 160


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (make and compiler children included), waits for it, and fails."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{Path(cmd[0]).name} did not finish within {timeout} s")
    return proc.returncode, out


def build():
    OUT.mkdir(exist_ok=True)
    log = OUT / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    with open(log, "w") as f:
        for cmd in steps:
            try:
                rc, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=f,
                                  stderr=subprocess.STDOUT)
            except OSError as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                f.flush()
                sys.stderr.write(log.read_text()[-3000:])
                fail(f"build failed (log: {log})")
    return BUILD / "perfbench"


def source_digest():
    """Content hash of everything the binary is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for p in sorted(top.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_info(digest):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": str(os.cpu_count()), "cpu_model": cpu,
            "commit": commit, "source_digest": digest}


def steal_ticks():
    """Host steal time of this machine so far (ticks), 0 if unavailable."""
    try:
        return int(Path("/proc/stat").read_text().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def check_counters(workload, seed, digest, counters):
    """Exact counters must repeat bit for bit across runs of one seed."""
    path = OUT / "counters" / digest / f"{workload}-seed{seed}.json"
    if path.exists():
        before = json.loads(path.read_text())
        diff = sorted(k for k in set(before) | set(counters)
                      if before.get(k) != counters.get(k))
        return [f"exact counter {k}: {before.get(k)} before, "
                f"{counters.get(k)} now" for k in diff]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True))
    return []


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    mapping = json.loads((BENCH / "layers.json").read_text())

    binary = build()
    digest = source_digest()
    env = dict(os.environ)
    was_set = {k: k in env for k in PINNED_ENV}
    for k in PINNED_ENV:
        env.pop(k, None)

    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    trace_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_file)]
    started = time.monotonic()
    steal0 = steal_ticks()
    rc, stdout = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                           env=env, text=True)
    lines = stdout.strip().splitlines()
    if rc not in (0, 1) or not lines:
        fail(f"benchmark exited with code {rc}")
    result = json.loads(lines[-1])
    elapsed = time.monotonic() - started
    # Time the hypervisor ran other guests on this machine's CPUs during
    # the run: with 4 ranks in lockstep on 4 vCPUs it slows every phase,
    # so a noisy run is recognisable from this figure.
    steal_share = (steal_ticks() - steal0) / (
        elapsed * (os.cpu_count() or 1) * os.sysconf("SC_CLK_TCK"))

    failures = list(result["failures"])
    failures += check_counters(args.workload, args.seed, digest,
                               result["counters"])
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            failures.append(f"metric {m['name']} missing or not in {m['unit']}")
    failed = result["failed"] + len(failures) - len(result["failures"])

    info = dict(result["info"])
    info.update(host_info(digest))
    info.update({f"{k}_was_set": str(v) for k, v in was_set.items()})
    info["host_steal_share"] = f"{steal_share:.4f}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "wall_s": elapsed, "info": info, "metrics": metrics,
              "counters": result["counters"], "failures": failures}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" /
     f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    gated = {m["name"] for m in spec["end_to_end"]}
    layer_map = mapping["per_layer"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"({elapsed:.1f} s)")
    for k in ("cpu_model", "nproc", "compiler", "build_type", "commit",
              "source_digest", "ranks", "threads_per_rank",
              "DRCM_SPMSPV_ACC", "DRCM_THREADS", "host_steal_share"):
        print(f"  {k:18s} {info.get(k)}")
    aliases = mapping["aliases"][args.workload]
    for name, m in metrics.items():
        note = ("gated" if name in gated
                else layer_map.get(name, "not gated"))
        if name in aliases:
            note = f"{aliases[name]}; {note}"
        print(f"  {name:28s} {m['value']:<14.6g} {m['unit']:6s} "
              f"n={m['samples']:<5d} {note}")
    for k, v in sorted(result["counters"].items()):
        print(f"  counter {k:28s} {v}")
    for f in failures:
        print(f"  FAILED: {f}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
