#!/usr/bin/env python3
"""The mapwave benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-digests

Run from the repository root. Builds `perfbench/` (a Cargo package of its
own) into $CARGO_TARGET_DIR, default `.bench_build`, then spawns one fresh
`mapwave-perfbench` process per repetition, so no stage cache, telemetry
store or allocator state carries over between repetitions.

`--trace 0` repeats the workload untraced for about S seconds and reports
the fastest repetition's wall_s and the medians of the other end-to-end
measurements. `--trace 1` runs it once untraced
and once traced and reports the per-layer metrics. Either way the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Metric names and units come from BENCHMARK.json; README.md says what each
one means. Host facts go to the line before it, progress to stderr.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
DIGESTS = HERE / "expected_digests.json"
BINARY_NAME = "mapwave-perfbench"
CHILD_TIMEOUT_S = 170
# The fastest of fewer than two repetitions is no estimate at all.
MIN_REPS = 2
# Extra set-up-only processes per run: set-up takes milliseconds, so its
# median needs more samples than the timed repetitions give.
SETUP_SAMPLES = 15
# Reported for a model metric the workload has no product for (README.md).
NOT_APPLICABLE = 1.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        raise BenchError(f"no mapwave sources under {ROOT}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        raise BenchError("cargo build failed")
    return target / "release" / BINARY_NAME


def repetition(binary, workload, seed, *, trace=False, tiny=False, setup_only=False):
    cmd = [str(binary), workload, "--seed", str(seed), "--tmp", str(TMP)]
    cmd += ["--trace"] * trace + ["--tiny"] * tiny + ["--setup-only"] * setup_only
    spawned = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # Set-up time runs from the spawn to the start of the timed region
    # (both on the system clock), so it includes process start.
    result["setup_s"] = result["timed_start_unix"] - spawned
    return result


def check(result, expected):
    """Failures of one repetition: its own plus every digest mismatch."""
    failures = list(result["failures"])
    for name, value in sorted(result["digests"].items()):
        want = expected.get(name)
        if want != value:
            failures.append(f"digest {name}: {value} != expected {want}")
    missing = sorted(set(expected) - set(result["digests"]))
    failures += [f"digest {name} missing" for name in missing]
    return failures


def load_expected(workload, size):
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return table.get(workload, {}).get(size, {})


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_facts():
    def cmd_out(*cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "os": platform.platform(),
        "rustc": cmd_out("rustc", "--version"),
        "commit": cmd_out("git", "rev-parse", "HEAD"),
    }


def measure(binary, workload, seed, seconds, trace):
    """Runs the workload; returns (attempted, failures, metric values)."""
    expected = load_expected(workload, "full")
    failures = []
    if trace:
        plain = repetition(binary, workload, seed)
        traced = repetition(binary, workload, seed, trace=True)
        reps = [plain, traced]
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        log_ledger(workload, traced)
    else:
        reps = []
        start = time.monotonic()
        while True:
            reps.append(repetition(binary, workload, seed))
            elapsed = time.monotonic() - start
            if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > seconds:
                break
        setup = [r["setup_s"] for r in reps]
        setup += [repetition(binary, workload, seed, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        walls = [r["wall_s"] for r in reps]
        values = {
            # Other load on the host only ever adds time to this
            # deterministic work, so the fastest repetition is the steadiest
            # estimate of its cost; the median is logged beside it.
            "wall_s": min(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        values.update(reps[0]["fidelity"])
        log(f"{workload}: {len(reps)} repetitions, wall_s "
            + " ".join(f"{w:.3f}" for w in walls)
            + f" (min {min(walls):.3f}, median {statistics.median(walls):.3f})")
    for r in reps:
        failures += check(r, expected)
        if r["fidelity"] != reps[0]["fidelity"]:
            failures.append("model metrics differ between repetitions")
    attempted = sum(r["attempted"] for r in reps)
    return attempted, failures, values


def log_ledger(workload, traced):
    layers = traced["layers"]
    wall = layers["trace.wall_s"]
    log(f"{workload}: traced wall {wall:.3f} s, rows account for "
        f"{layers['trace.accounted_frac'] * 100:.1f}%")
    for name, value in sorted(layers.items()):
        share = f"{value / wall * 100:6.1f}%" if name.endswith("_s") else ""
        log(f"  {name:<40} {value:>16.6g} {share}")


def result_line(spec, trace, attempted, failures, values):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    failed = min(len(failures), attempted)
    if not trace:
        values["ok_frac"] = 1.0 - failed / attempted
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None and not trace and m["name"] not in ("wall_s", "setup_s"):
            value = NOT_APPLICABLE
        if value is None:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def self_check(binary, spec):
    """Each workload once at a tiny size, traced and untraced: outputs
    against the committed tiny digests, metric names and units against
    BENCHMARK.json."""
    ok = True
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    for w in spec["workloads"]:
        name = w["name"]
        expected = load_expected(name, "tiny")
        plain = repetition(binary, name, 1, tiny=True)
        traced = repetition(binary, name, 1, tiny=True, trace=True)
        problems = check(plain, expected) + check(traced, expected)
        problems += [f"unknown model metric {m}" for m in plain["fidelity"] if m not in end_to_end]
        layers = set(traced["layers"])
        problems += [f"layer metric {m} not produced" for m in sorted(per_layer - layers)]
        problems += [f"layer metric {m} not in BENCHMARK.json" for m in sorted(layers - per_layer)]
        for p in problems:
            log(f"{name}: {p}")
        log(f"{name}: {'ok' if not problems else 'FAILED'} "
            f"(wall {plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s)")
        ok &= not problems
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]):
            log(f"{m['name']}: malformed unit {m['unit']!r}")
            ok = False
    return ok


def record_digests(binary, spec):
    table = {}
    for w in spec["workloads"]:
        name = w["name"]
        table[name] = {
            "full": repetition(binary, name, 1)["digests"],
            "tiny": repetition(binary, name, 1, tiny=True)["digests"],
        }
        log(f"{name}: recorded")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    try:
        spec = benchmark_spec()
        binary = build()
        if args.self_check:
            return 0 if self_check(binary, spec) else 1
        if args.record_digests:
            record_digests(binary, spec)
            return 0
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        attempted, failures, values = measure(
            binary, args.workload, args.seed, args.seconds, args.trace == 1)
        for f in failures:
            log(f"FAILED: {f}")
        line = result_line(spec, args.trace == 1, attempted, failures, values)
        print(json.dumps({"host": host_facts(), "workload": args.workload,
                          "seed": args.seed}))
        print(json.dumps(line))
        return 0
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
