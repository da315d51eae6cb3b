#!/usr/bin/env python3
"""End-to-end benchmark of the paper's verdicts and simulations.

    python3 benchmark/run.py --seed 1

builds benchmark/ppn_bench from the repository's sources, runs every workload
(one traced pass, then untraced passes, each pass its own process), checks
every output, prints each metric with its unit, value, median, quartiles and
sample count, and writes the results with an environment header to
benchmark/build/results/. It exits non-zero when any check fails.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload for about S seconds (at least MIN_PASSES untraced passes)
and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1 (taken from one traced pass;
the untraced passes give obs.trace_overhead_frac).

See benchmark/README.md for the workloads, metrics and bounds.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "ppn_bench")
RESULTS = os.path.join(BUILD, "results")

# Untraced passes per workload when no --seconds is given (one full
# invocation takes about two minutes), and the floor under --seconds.
PASSES = {"reproduce": 8, "check_large": 5, "check_spill": 8, "converge": 5}
MIN_PASSES = 3
BUILD_JOBS = 2
# A one-workload run, builds excepted, must end within this many seconds.
RUN_DEADLINE_S = 170.0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then rebuilds ppn_bench if any source changed."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "ppn_bench",
                  "-j", str(BUILD_JOBS)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; full log in " + log_path)


class Run:
    """Passes of one workload and the failures found in them."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.passes = []   # parsed JSON lines of untraced passes
        self.traced = None
        self.attempted = 0
        self.failures = []
        self.started = 0  # passes started, for unique spill directories

    def run_pass(self, trace):
        args = [BINARY, "--workload", self.workload, "--seed", str(self.seed)]
        if trace:
            args.append("--trace")
        self.started += 1
        spill = None
        if self.workload == "check_spill":
            spill = os.path.join(BUILD, "spill", f"{os.getpid()}-{self.started}")
            os.makedirs(spill)
            args += ["--spill-dir", spill]
        timeout = (None if self.deadline is None
                   else max(1.0, self.deadline - time.monotonic()))
        args += ["--t0-ns", str(time.monotonic_ns())]
        try:
            proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.attempted += 1
            self.failures.append(f"{self.workload} pass timed out after {timeout:.0f} s")
            return None
        finally:
            if spill is not None:
                try:
                    os.rmdir(spill)
                except OSError:
                    self.failures.append(f"spill directory {spill} not left empty")
                    shutil.rmtree(spill, ignore_errors=True)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            self.attempted += 1
            self.failures.append(f"{self.workload} pass exited {proc.returncode} "
                                 "without a result")
            return None
        self.attempted += result["attempted"]
        self.failures += result["failures"]
        if trace:
            self.traced = result
            self.check_trace(result)
        else:
            self.passes.append(result)
        return result

    def check_trace(self, result):
        layers = result["layers"]
        wall = layers["obs.traced_wall_ms"]
        rows = sum(layers[name] for name in result["breakdown"])
        if abs(rows - wall) > 0.01 * wall or layers["unattributed_ms"] < -0.01 * wall:
            self.failures.append(
                f"{self.workload}: breakdown sums to {rows:.1f} ms of {wall:.1f} ms "
                f"(unattributed {layers['unattributed_ms']:.1f} ms)")
        if self.workload == "check_spill" and not (
                layers["spill.disk_mb"] > 0 and layers["spill.runs"] > 0):
            self.failures.append("check_spill: traced pass did not spill to disk")

    def check_digests(self):
        runs = self.passes + ([self.traced] if self.traced else [])
        digests = {r["digest"] for r in runs}
        if len(digests) > 1:
            self.failures.append(f"{self.workload}: outcome digest differs across "
                                 f"passes of seed {self.seed}: {sorted(digests)}")

    def run(self, trace, passes=None, seconds=None):
        """One traced pass first (if asked), then untraced passes: exactly
        `passes` of them, or as many as fit in `seconds` (at least MIN_PASSES).
        A pass is started only if, at the pace of the untraced passes so far,
        it ends in time."""
        start = time.monotonic()
        if trace:
            self.run_pass(trace=True)
        untraced_s = 0.0
        while True:
            n = len(self.passes)
            if passes is not None and n >= passes:
                break
            if seconds is not None and n >= MIN_PASSES:
                if time.monotonic() - start + untraced_s / n > seconds:
                    break
            t = time.monotonic()
            if self.run_pass(trace=False) is None:
                break
            untraced_s += time.monotonic() - t
        self.check_digests()

    def summary(self):
        ps = self.passes
        metrics = {}
        if ps:
            wall = quiet_wall_s(ps)
            value = {"wall_s": wall,
                     "setup_s": min(p["setup_s"] for p in ps),
                     "work_per_s": ps[0]["work"] / wall,
                     "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ps)}
            for name, v in value.items():
                metrics[name] = dict(describe([p[name] for p in ps]), value=v)
        out = {
            "threads": ps[0]["threads"] if ps else None,
            "passes": len(ps),
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "metrics": metrics,
            "pass_results": ps,
        }
        if self.traced:
            layers = dict(self.traced["layers"])
            if ps:
                layers["obs.trace_overhead_frac"] = (
                    self.traced["wall_s"] / metrics["wall_s"]["value"] - 1.0)
            out["layers"] = layers
            out["breakdown"] = self.traced["breakdown"]
        return out


def quiet_wall_s(passes):
    """Pass wall time with every driver call at its fastest time in this run.

    Other tenants of a shared host slow single CPUs by up to 2x for seconds
    at a time, so a median over a 25 s run still moves by 20-30% between
    runs. Every pass makes the same calls in the same order; each call's
    minimum over the passes, plus the minimum time spent between calls,
    estimates the pass on a quiet machine."""
    rows = [p["segments_ms"] + [1e3 * p["wall_s"] - sum(p["segments_ms"])]
            for p in passes]
    if len({len(r) for r in rows}) != 1:
        return min(p["wall_s"] for p in passes)
    return sum(min(column) for column in zip(*rows)) / 1e3


def describe(values):
    """Median, quartiles, sample count and the highest percentile that has at
    least ten samples beyond it (none below 100 samples)."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    out = {"values": values, "n": len(values), "median": statistics.median(values),
           "q1": q1, "q3": q3}
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = statistics.quantiles(values, n=1000)[round(p * 10) - 1]
            break
    return out


def environment(workloads):
    def first_line(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT).stdout.splitlines()[0].strip()
        except (OSError, IndexError):
            return "unknown"

    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if ":" in line and "=" in line and not line.startswith(("#", "//")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    sha = first_line(["git", "rev-parse", "HEAD"])
    dirty = None
    if sha != "unknown":
        dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src"],
                                    capture_output=True, text=True,
                                    cwd=ROOT).stdout.strip())
    cpu, caches, ram_kb = "unknown", {}, 0
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
        with open("/proc/meminfo") as f:
            ram_kb = int(next(l.split()[1] for l in f if l.startswith("MemTotal")))
        base = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(base)):
            if index.startswith("index"):
                with open(os.path.join(base, index, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(base, index, "size")) as f:
                    caches[f"L{level}"] = f.read().strip()
    except (OSError, StopIteration, ValueError):
        pass
    return {
        "git_sha": sha,
        "git_dirty_src": dirty,
        "compiler": first_line([compiler, "--version"]),
        "cxx_flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                      cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")).strip(),
        "build_type": build_type,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "ram_mb": ram_kb // 1024,
        "kernel": platform.release(),
        "workloads": {w: {"threads": s["threads"], "passes": s["passes"]}
                      for w, s in workloads.items()},
    }


def write_results(doc, stem):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-{stem}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def fmt(v):
    return f"{v:.6g}"


def print_report(spec, summaries):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("value: the metric as BENCHMARK.json defines it; median, q1, q3, n and"
          " tail: over the untraced passes")
    print(f"{'metric':<12} {'unit':<5} {'workload':<12} {'value':>12} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3}  tail")
    for w, s in summaries.items():
        for name, d in s["metrics"].items():
            tail = next((f"{k}={fmt(v)}" for k, v in d.items() if k.startswith("p9")), "-")
            print(f"{name:<12} {units[name]:<5} {w:<12} {fmt(d['value']):>12} "
                  f"{fmt(d['median']):>12} {fmt(d['q1']):>12} {fmt(d['q3']):>12} "
                  f"{d['n']:>3}  {tail}")
    for w, s in summaries.items():
        layers = s.get("layers")
        if not layers:
            continue
        wall = layers["obs.traced_wall_ms"]
        rows = sorted(s["breakdown"], key=lambda r: -layers[r])
        print(f"\n{w}: traced breakdown of {fmt(wall)} ms, tracing overhead "
              f"obs.trace_overhead_frac = {fmt(layers.get('obs.trace_overhead_frac', 0.0))}")
        for r in rows:
            if layers[r]:
                print(f"  {r:<28} {fmt(layers[r]):>12} ms  {100 * layers[r] / wall:6.2f} %")
        print(f"  {'sum':<28} {fmt(sum(layers[r] for r in rows)):>12} ms")
        print(f"  per-layer metrics ({w}):")
        for name, v in layers.items():
            print(f"    {name:<32} {fmt(v):>14} {units[name]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measure for about this long (default: fixed pass counts)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one workload: report per-layer (1) or end-to-end (0) metrics")
    args = parser.parse_args()
    # Exit through Python on SIGTERM so a running pass is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: run from a full checkout")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S if args.workload else None
    summaries = {}
    for w in [args.workload] if args.workload else names:
        run = Run(w, args.seed, deadline)
        trace = args.trace != 0  # traced unless --trace 0
        if args.seconds is not None:
            run.run(trace, seconds=args.seconds)
        else:
            run.run(trace, passes=PASSES[w])
        summaries[w] = run.summary()

    doc = {"env": environment(summaries), "seed": args.seed, "seconds": args.seconds,
           "workloads": summaries}
    path = write_results(doc, args.workload or "all")
    print_report(spec, summaries)
    attempted = sum(s["attempted"] for s in summaries.values())
    failures = [f for s in summaries.values() for f in s["failures"]]
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(f"\nresults: {os.path.relpath(path, ROOT)}")

    if args.workload is not None:
        s = summaries[args.workload]
        if args.trace == 1:
            values = s.get("layers", {})
            wanted = spec["per_layer"]
        else:
            values = {k: d["value"] for k, d in s["metrics"].items()}
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in values}
        if len(metrics) != len(wanted):
            failures.append("missing metrics")
        print(json.dumps({"correct": not failures, "attempted": max(attempted, 1),
                          "failed": len(failures), "metrics": metrics}))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
