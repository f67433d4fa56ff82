#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in this directory).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload batch-skew --seed 1 --seconds 20 --trace 0

builds the program from source and runs it; its last line of output is the
result object. --trace 1 gives the traced run with the per-layer metrics.

Steadiness mode runs every workload repeatedly, alternating their order,
each run with its own seed, and prints each metric's median, quartiles,
minimum and maximum next to the bound in BENCHMARK.json:

    python3 perfbench/run.py --steady --runs 10 [--workloads batch-skew,serve-durable] [--trace 0]

Everything the build and the runs write goes under .bench_build in the
checkout, or under $CARGO_TARGET_DIR when that is set.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["batch-skew", "serve-durable", "serve-snapshot"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def go_env(out):
    """The environment for the go tool: every cache and config it writes
    lives under out, and it never fetches anything."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    return env


def build():
    """Builds the program; returns its path, or None after reporting why."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    res = run_child(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=go_env(out))
    if res.returncode != 0:
        print("run.py: go build failed", file=sys.stderr)
        return None
    return binary


def run_child(args, capture=False, **kw):
    """Runs a child to completion; the child is killed if this process is
    interrupted or terminated, and always waited for."""
    stdout = subprocess.PIPE if capture else None
    proc = subprocess.Popen(args, stdout=stdout, text=True, **kw)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return subprocess.CompletedProcess(args, proc.returncode, out)


def run_once(binary, workload, seed, seconds, trace, capture=False):
    args = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--dir", build_dir()]
    return run_child(args, capture=capture, cwd=ROOT)


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def steady(binary, args):
    names = args.workloads.split(",")
    go_version = subprocess.run(["go", "version"], capture_output=True, text=True, env=go_env(build_dir())).stdout.strip()
    print(f"# steadiness: runs={args.runs} seconds={args.seconds} trace={args.trace} first-seed={args.seed} "
          f"nproc={os.cpu_count()} GOMAXPROCS={os.environ.get('GOMAXPROCS', os.cpu_count())} {go_version}")
    values = {w: {} for w in names}
    failed = False
    for r in range(args.runs):
        order = names if r % 2 == 0 else names[::-1]
        for w in order:
            seed = args.seed + r
            res = run_once(binary, w, seed, args.seconds, args.trace, capture=True)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {res.returncode}", flush=True)
                failed = True
                continue
            out = json.loads(lines[-1])
            for m, v in out["metrics"].items():
                values[w].setdefault(m, []).append((v["value"], v["unit"]))
            short = " ".join(f"{m}={v['value']:.4g}" for m, v in sorted(out["metrics"].items()))
            print(f"{w} seed {seed}: correct={out['correct']} attempted={out['attempted']} failed={out['failed']} {short}",
                  flush=True)
    bound = bounds()
    for w in names:
        print(f"\n## {w}")
        print(f"{'metric':34} {'unit':>7} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
        for m, vs in sorted(values[w].items()):
            xs = [v for v, _ in vs]
            unit = vs[0][1]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else float("nan")
            b = bound.get(m)
            flag = ""
            if b is not None and m != "setup_s" and not spread <= b:
                flag = "  OVER BOUND"
            print(f"{m:34} {unit:>7} {med:12.5g} {q1:12.5g} {q3:12.5g} {min(xs):12.5g} {max(xs):12.5g} {spread:7.3f} "
                  f"{'' if b is None else b:>6}{flag}")
    return 1 if failed else 0


def terminate(signum, frame):
    raise KeyboardInterrupt


def main():
    signal.signal(signal.SIGTERM, terminate)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true", help="run every workload repeatedly and summarize")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args()
    if not args.steady and not args.workload:
        p.error("--workload or --steady is required")
    binary = build()
    if binary is None:
        return 1
    if args.steady:
        return steady(binary, args)
    return run_once(binary, args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
