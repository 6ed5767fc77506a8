#!/usr/bin/env python3
"""Build and run the simulator benchmark; compare two sets of results.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <sweep_1_14|scale_100k|outage_5k|all>
                           --seed N --seconds S --trace 0|1 [--out FILE]
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --compare BASE.jsonl HEAD.jsonl

The program is built from source into .bench_build/ on first use.  The
last line of a run's stdout is its JSON result.  --out appends one JSON
line per run (host facts, workload, seed, result) for --compare.  A traced
run writes its spans to .bench_out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "pdht_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}", 5)
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "core" / "pdht_system.h").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a "
             "checkout of the repository", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "ab") as log:
        for cmd in steps:
            code, _ = run_bounded(cmd, BUILD_TIMEOUT_S, stdout=log,
                                  stderr=subprocess.STDOUT)
            if code != 0:
                tail = log_path.read_text(errors="replace")[-4000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}", 3)


def commit_id():
    """The checkout's git commit, or 'unknown' outside a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(args):
    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--commit", commit_id()]
    if args.trace == 1:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--spans",
                str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")]
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                            text=True)
    lines = [line for line in out.splitlines() if line.strip()]
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited with code {code}", 4)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        fail("benchmark printed no JSON result", 4)
    host = next((json.loads(line[5:]) for line in lines
                 if line.startswith("host ")), {})
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "host": host,
                                "result": result}) + "\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


# --- compare ------------------------------------------------------------


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: m for m in spec["per_layer"]}
    out.update({m["name"]: m for m in spec["end_to_end"]})
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(base_path, head_path):
    """Per workload and metric: each side's median and quartiles, the share
    of seed-matched pairs each side won, and the verdict.  A regression is
    a head median worse than the base median by more than the metric's
    bound; a gain needs the head to win at least 9/10 of the pairs and
    the medians to differ by more than the base's quartile spread."""
    specs = metric_specs()
    base, head = load_runs(base_path), load_runs(head_path)
    keys = sorted({(r["workload"], r["trace"]) for r in base + head})
    regressions = 0
    print(f"{'workload':<12} {'metric':<36} {'base med [q1,q3]':<32} "
          f"{'head med [q1,q3]':<32} {'head won':>8} {'base won':>8}  verdict")
    for workload, trace in keys:
        b_runs = [r for r in base if (r["workload"], r["trace"]) ==
                  (workload, trace)]
        h_runs = [r for r in head if (r["workload"], r["trace"]) ==
                  (workload, trace)]
        names = sorted(set().union(*(r["result"]["metrics"].keys()
                                     for r in b_runs + h_runs)))
        for name in names:
            spec = specs.get(name, {"better": "lower"})
            lower = spec["better"] == "lower"

            def by_seed(runs):
                return {r["seed"]: r["result"]["metrics"][name]["value"]
                        for r in runs if name in r["result"]["metrics"]}

            b_vals, h_vals = by_seed(b_runs), by_seed(h_runs)
            if not b_vals or not h_vals:
                continue
            pairs = [(b_vals[s], h_vals[s]) for s in b_vals if s in h_vals]
            head_won = sum(1 for b, h in pairs if (h < b if lower else h > b))
            base_won = sum(1 for b, h in pairs if (b < h if lower else b > h))
            bq1, bmed, bq3 = quartiles(list(b_vals.values()))
            hq1, hmed, hq3 = quartiles(list(h_vals.values()))
            worse = (hmed - bmed) if lower else (bmed - hmed)
            rel_worse = worse / abs(bmed) if bmed else 0.0
            bound = spec.get("bound")
            if bound is not None and rel_worse > bound:
                verdict = f"REGRESSION (worse by {rel_worse:.1%} > {bound:.0%})"
                regressions += 1
            elif (pairs and head_won >= 0.9 * len(pairs)
                  and abs(hmed - bmed) > (bq3 - bq1)):
                verdict = "gain"
            elif bound is not None and bmed and (bq3 - bq1) / abs(bmed) > bound:
                verdict = "unresolved (base spread exceeds bound)"
            else:
                verdict = "within bound" if bound is not None else "-"
            n = max(len(pairs), 1)
            b_txt = f"{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]"
            h_txt = f"{hmed:.4g} [{hq1:.4g}, {hq3:.4g}]"
            print(f"{workload:<12} {name:<36} {b_txt:<32} {h_txt:<32} "
                  f"{head_won / n:>8.0%} {base_won / n:>8.0%}  {verdict}")
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="append this run's result to FILE (JSONL)")
    p.add_argument("--selftest", action="store_true",
                   help="run the benchmark's own tests")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                   help="compare two --out files")
    args = p.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.selftest:
        build()
        code, _ = run_bounded([str(BINARY), "--selftest"], RUN_TIMEOUT_S)
        sys.exit(code)
    if not args.workload:
        p.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
