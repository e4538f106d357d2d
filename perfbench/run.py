#!/usr/bin/env python3
"""Build and run the repository benchmark.

One workload (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload vc_loaded --seed 1 --seconds 20 --trace 0

builds `perf` with `cargo build --release --offline` and runs it once; its
standard output passes through unchanged, so the last line is the result
JSON, and the exit code is perf's (non-zero when the build or a check
fails).

The whole suite:

    python3 perfbench/run.py --suite --seed 1 --repeat 10 --out suite.json

runs every workload `--repeat` times (seeds `seed`, `seed+1`, ...), each in
its own process so `peak_rss_mb` is per workload, then every workload once
with `--trace 1`, and writes one JSON document: the machine tag (nproc, CPU
model, load average at start), every run's metrics and detail, and per
metric the median, quartiles and spread (q3 - q1) / median over the runs,
with quartiles as Python's `statistics.quantiles(values, n=4)` gives them.

    python3 perfbench/run.py --merge suite1.json suite2.json --out baseline.json

pools suites of one commit into a baseline (perfbench/baseline.json is
two such suites of the commit it names), and

    python3 perfbench/run.py --compare perfbench/baseline.json suite.json

prints each end-to-end metric's median in both, the change, and whether
it stays within the bound BENCHMARK.json fixes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Build perf offline and return its path; exit on failure.

    `--offline` rather than `--frozen`: every dependency is an in-tree path
    crate, so there is nothing to download, and a later change to the
    crates' own dependency lists must refresh perfbench/Cargo.lock instead
    of failing the build."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return target / "release" / "perf"


def run_once(perf, workload, seed, seconds, trace):
    """Run one workload; return (exit code, detail dict, result dict)."""
    cmd = [str(perf), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(l[len("detail "):]) for l in lines
                   if l.startswith("detail ")), {})
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, detail, result


def spread(values):
    """Median, quartiles and (q3 - q1) / median, as the acceptance rule
    computes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0, "samples": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "samples": len(values)}


def machine_tag():
    model = next((l.split(":", 1)[1].strip()
                  for l in Path("/proc/cpuinfo").read_text().splitlines()
                  if l.startswith("model name")), "unknown")
    return {"nproc": os.cpu_count(), "cpu": model,
            "loadavg": Path("/proc/loadavg").read_text().split()[:3]}


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def suite(args):
    tag = machine_tag()
    perf = build()
    doc = {"commit": commit(), "machine": tag, "seconds": args.seconds,
           "seed": args.seed, "repeat": args.repeat, "workloads": {}}
    failed = False
    for w in spec()["workloads"]:
        name = w["name"]
        runs = []
        for i in range(args.repeat):
            code, detail, result = run_once(perf, name, args.seed + i, args.seconds, 0)
            failed |= code != 0 or not result.get("correct", False)
            runs.append({"seed": args.seed + i, "exit": code, "result": result,
                         "detail": detail})
            m = result.get("metrics", {})
            print(f"{name} seed {args.seed + i}: " + ", ".join(
                f"{k} {v['value']:.6g} {v['unit']}" for k, v in m.items()), file=sys.stderr)
        metrics = {}
        for key in runs[0]["result"].get("metrics", {}):
            values = [r["result"]["metrics"][key]["value"] for r in runs]
            metrics[key] = dict(spread(values), unit=runs[0]["result"]["metrics"][key]["unit"])
        code, detail, result = run_once(perf, name, args.seed, args.seconds, 1)
        failed |= code != 0 or not result.get("correct", False)
        doc["workloads"][name] = {"end_to_end": metrics, "runs": runs,
                                  "trace": {"exit": code, "result": result, "detail": detail}}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for name, w in doc["workloads"].items():
        for key, m in w["end_to_end"].items():
            print(f"{name:<11} {key:<13} median {m['median']:.6g} {m['unit']:<9} "
                  f"spread {100 * m['spread']:.2f}% over {m['samples']}", file=sys.stderr)
    return 1 if failed else 0


def merge(paths, out):
    """Pool suites of one commit into a baseline: per workload, each
    end-to-end metric over every run of every suite, each suite's own
    statistics, and the traced runs' per-layer values."""
    suites = [json.loads(Path(p).read_text()) for p in paths]
    # A suite run in a checkout without git metadata records "unknown";
    # merging in the repository then names its HEAD.
    known = next((s["commit"] for s in suites if s["commit"] != "unknown"), commit())
    doc = {"commit": known, "seconds": suites[0]["seconds"],
           "machines": [s["machine"] for s in suites], "workloads": {}}
    for name in suites[0]["workloads"]:
        runs = [r for s in suites for r in s["workloads"][name]["runs"]]
        end_to_end = {}
        for key, first in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][key]["value"] for r in runs]
            end_to_end[key] = dict(spread(values), unit=first["unit"],
                                   sets=[s["workloads"][name]["end_to_end"][key]
                                         for s in suites])
        traces = [s["workloads"][name]["trace"]["result"]["metrics"] for s in suites]
        per_layer = {key: {"unit": m["unit"], "values": [t[key]["value"] for t in traces]}
                     for key, m in traces[0].items()}
        doc["workloads"][name] = {"end_to_end": end_to_end, "per_layer": per_layer}
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def compare(old_path, new_path):
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    worse = 0
    for m in spec()["end_to_end"]:
        for w in spec()["workloads"]:
            a = old["workloads"][w["name"]]["end_to_end"][m["name"]]["median"]
            b = new["workloads"][w["name"]]["end_to_end"][m["name"]]["median"]
            change = (b - a) / a
            worsening = change if m["better"] == "lower" else -change
            ok = worsening <= m["bound"]
            worse += not ok
            print(f"{w['name']:<11} {m['name']:<13} {a:12.6g} -> {b:12.6g} "
                  f"{100 * change:+7.2f}%  bound {100 * m['bound']:.0f}%  "
                  f"{'ok' if ok else 'WORSE'}")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--suite", action="store_true")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--merge", nargs="+", metavar="SUITE")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.compare:
        return compare(*args.compare)
    if args.merge:
        if not args.out:
            p.error("--merge needs --out")
        return merge(args.merge, args.out)
    if args.suite:
        return suite(args)
    if not args.workload:
        p.error("--workload, --suite or --compare is required")
    perf = build()
    cmd = [str(perf), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
