#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of limpetmlir.

Run one workload (from the root of a source checkout):

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 40 --trace 0

builds perfbench/bench.exe with dune, launches fresh-process repetitions
of the workload for about --seconds seconds, checks their outputs and
prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.

Other modes:

    python3 perfbench/run.py sweep --seeds 1-10 --trace 0 --out FILE
        run every workload once per seed, appending one JSON line per run
    python3 perfbench/run.py diff BASE.jsonl NEW.jsonl
        compare two result sets metric by metric against the bounds
    python3 perfbench/run.py selftest [--seed N] [--workload W ...]
        check that count-exact metrics and final digests repeat exactly

Everything the benchmark writes stays inside the checkout: the build in
.bench_build/, compiler temporaries, checkpoints and traces in .perfbench/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".perfbench"
EXE = BUILD_DIR / "default" / "perfbench" / "bench.exe"

# A repetition of the slowest workload takes about 12 s on a 2-core host;
# a stuck one is killed long before it could stall a run for minutes.
REP_TIMEOUT_S = 120
# setup_s is the median of at least MIN_SETUPS set-ups per run, and of up
# to MAX_SETUPS while the time budget lasts.
MIN_SETUPS = 3
MAX_SETUPS = 15

# Per-layer metrics read from the paired untraced repetition: the counts
# a user's own (untraced) run produces.
FROM_UNTRACED = {
    "codegen.cache_misses": "cache_misses",
    "gc.allocated_mb": "gc_allocated_mb",
    "gc.major_collections": "gc_major_collections",
}

# Per-layer metrics that must repeat exactly across runs of one seed.
COUNT_EXACT = [
    "ir.ops_after_pipeline",
    "codegen.c_lines",
    "codegen.cache_misses",
    "solver.cg_iters",
    "kernel.oi",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env["TMPDIR"] = str(OUT_DIR / "tmp")
    env["XDG_CACHE_HOME"] = str(OUT_DIR / "cache")
    env["DUNE_CACHE"] = "disabled"
    return env


def run_child(cmd, timeout):
    """Run cmd in its own process group; on timeout kill the whole group
    (the compiler processes the native engine starts included) and wait."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + f"\nkilled after {timeout} s"
    return proc.returncode, out, err


def build():
    for d in ("tmp", "cache"):
        (OUT_DIR / d).mkdir(parents=True, exist_ok=True)
    code, out, err = run_child(
        ["dune", "build", "--root", str(ROOT), "--build-dir", str(BUILD_DIR),
         "perfbench/bench.exe"],
        timeout=850,
    )
    if code != 0 or not EXE.exists():
        log(out + err)
        log("perfbench: build failed")
        sys.exit(2)


def rep(workload, seed, traced=False, setup_only=False, check=False):
    """One fresh-process repetition; returns its JSON record, or a record
    carrying the failure when the process crashed or hung.  Repetitions of
    one seed must reach identical final digests, so the output checks run
    in one of them (check=True) and cover the rest."""
    cmd = [str(EXE), workload, "--seed", str(seed), "--out-dir", str(OUT_DIR)]
    if check:
        cmd.append("--check")
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    code, out, err = run_child(cmd, REP_TIMEOUT_S)
    elapsed = time.monotonic() - t0
    if err.strip():
        log(err.rstrip())
    lines = out.strip().splitlines()
    if code == 0 and lines:
        r = json.loads(lines[-1])
    else:
        r = {"runs": 1, "failed": 1,
             "failures": [f"bench.exe exited with {code}"], "crashed": True}
    r["elapsed"] = elapsed
    return r


def untraced_run(workload, seed, seconds):
    """Full repetitions while the budget lasts (at least one), then
    set-up-only repetitions: at least until setup_s has MIN_SETUPS
    samples, and up to MAX_SETUPS while the budget lasts."""
    t0 = time.monotonic()
    full = []
    while True:
        r = rep(workload, seed, check=not full)
        full.append(r)
        if r.get("crashed") or time.monotonic() - t0 + r["elapsed"] > seconds:
            break
    ok = [r for r in full if not r.get("crashed")]
    setups = [r["setup_s"] for r in ok]
    extra = []
    # a set-up-only repetition starts only if one like the slowest set-up
    # so far still fits the budget
    last = max(setups, default=0.0)
    while ok and (len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS
            and time.monotonic() - t0 + last <= seconds)):
        r = rep(workload, seed, setup_only=True)
        extra.append(r)
        if r.get("crashed"):
            break
        setups.append(r["setup_s"])
        last = r["elapsed"]
    reps = full + extra
    metrics = {}
    if ok:
        samples = {
            "wall_s": [r["wall_s"] for r in ok],
            "setup_s": setups,
            "cell_steps_per_s": [r["cell_steps"] / r["step_s"] for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        }
        for m in SPEC["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(samples[m["name"]]),
                                  "unit": m["unit"]}
    return reps, ok, metrics


def traced_run(workload, seed, seconds):
    """Pairs of an untraced and a traced repetition while the budget lasts
    (at least one pair).  Layer metrics are medians over the traced
    repetitions; trace.overhead is traced wall over untraced wall."""
    t0 = time.monotonic()
    pairs = []
    while True:
        t_pair = time.monotonic()
        plain = rep(workload, seed, check=not pairs)
        traced = rep(workload, seed, traced=True)
        pairs.append((plain, traced))
        if plain.get("crashed") or traced.get("crashed"):
            break
        if time.monotonic() - t0 + (time.monotonic() - t_pair) > seconds:
            break
    reps = [r for p in pairs for r in p]
    ok = [p for p in pairs if not (p[0].get("crashed") or p[1].get("crashed"))]
    metrics = {}
    for m in SPEC["per_layer"] if ok else []:
        name = m["name"]
        if name == "trace.overhead":
            xs = [t["wall_s"] / p["wall_s"] for p, t in ok]
        elif name in FROM_UNTRACED:
            xs = [p[FROM_UNTRACED[name]] for p, _ in ok]
        else:
            xs = [t["layers"][name] for _, t in ok]
        metrics[name] = {"value": statistics.median(xs), "unit": m["unit"]}
    return reps, [r for p in ok for r in p], metrics


def consistency_failures(ok_reps):
    """Every repetition of one seed, traced or not, must reach the same
    final states bit for bit, and a trace must not drop events."""
    problems = []
    full = [r for r in ok_reps if not r.get("setup_only")]
    if full and any(r["digests"] != full[0]["digests"] for r in full):
        problems.append("final state digests differ between repetitions")
    for r in full:
        if r.get("layers", {}).get("trace.dropped_events", 0):
            problems.append("trace ring dropped events")
    return problems


def run_workload(workload, seed, seconds, trace):
    fn = traced_run if trace else untraced_run
    reps, ok, metrics = fn(workload, seed, seconds)
    attempted = sum(r["runs"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = consistency_failures(ok)
    for r in reps:
        for f in r.get("failures", []):
            log(f"perfbench: {workload}: {f}")
    for p in problems:
        log(f"perfbench: {workload}: {p}")
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    correct = failed == 0 and not problems and len(metrics) == len(want)
    log(f"perfbench: {workload} seed={seed} trace={int(trace)} "
        f"repetitions={len(reps)} fail_share={failed}/{attempted}")
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


# -- result sets ---------------------------------------------------------

def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(args):
    build()
    with open(args.out, "a") as f:
        for workload in args.workload or WORKLOADS:
            for seed in parse_seeds(args.seeds):
                res = run_workload(workload, seed, args.seconds, args.trace)
                line = {"workload": workload, "seed": seed,
                        "trace": args.trace, "result": res}
                f.write(json.dumps(line) + "\n")
                f.flush()
                log(json.dumps(line))


def load_set(path):
    """{(workload, metric): [values]} from a result-set file."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        for name, m in row["result"]["metrics"].items():
            out.setdefault((row["workload"], name), []).append(m["value"])
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """better / worse / within bounds / unresolved for one metric.

    Worse means the new median is worse than the base median by more than
    the bound.  Better means the medians differ by more than the base's
    own quartile spread and every new run reads better than every base
    run.  Where either side's spread is wider than the bound the metric
    is unresolved rather than unchanged.  Per-layer metrics have bound 0:
    only an exact repeat is within bounds."""
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (nmed - bmed) / abs(bmed) if bmed else sign * (nmed - bmed)
    if better == "lower":
        every_run_better = max(new) < min(base)
    else:
        every_run_better = min(new) > max(base)
    if every_run_better and abs(nmed - bmed) > bq3 - bq1:
        return "better", change
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    return "within bounds", change


def diff(args):
    base, new = load_set(args.base), load_set(args.new)
    specs = [(m, m.get("bound", 0.0)) for m in SPEC["end_to_end"]] + [
        (m, 0.0) for m in SPEC["per_layer"]]
    worse = 0
    print(f"{'workload':14} {'metric':28} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'change':>8}  verdict")
    for workload in WORKLOADS:
        for m, bound in specs:
            key = (workload, m["name"])
            if key not in base or key not in new:
                continue
            v, change = verdict(base[key], new[key], m["better"], bound)
            worse += v == "worse" and m in SPEC["end_to_end"]
            bq1, bmed, bq3 = quartiles(base[key])
            nq1, nmed, nq3 = quartiles(new[key])
            print(f"{workload:14} {m['name']:28} "
                  f"{bmed:14.6g} [{bq1:.6g}, {bq3:.6g}] "
                  f"{nmed:14.6g} [{nq1:.6g}, {nq3:.6g}] "
                  f"{change:+8.3f}  {v}")
    sys.exit(1 if worse else 0)


def selftest(args):
    """Two traced runs of one seed per workload: the count-exact metrics
    and the final digests must agree exactly."""
    build()
    bad = 0
    for workload in args.workload or WORKLOADS:
        seen = []
        for _ in range(2):
            plain = rep(workload, args.seed, check=True)
            traced = rep(workload, args.seed, traced=True)
            counts = {k: traced.get("layers", {}).get(k) for k in COUNT_EXACT}
            counts["codegen.cache_misses"] = plain.get("cache_misses")
            seen.append((counts, plain.get("digests"), traced.get("digests")))
        (c1, p1, t1), (c2, p2, t2) = seen
        same = c1 == c2 and p1 == p2 == t1 == t2 and p1
        bad += not same
        print(f"{workload}: {'ok' if same else 'MISMATCH'} {c1}")
        if not same:
            print(f"  second run: {c2}")
    sys.exit(1 if bad else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("sweep", "diff", "selftest"):
        p = argparse.ArgumentParser(prog="run.py")
        sub = p.add_subparsers(dest="mode", required=True)
        s = sub.add_parser("sweep")
        s.add_argument("--seeds", default="1-10")
        s.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
        s.add_argument("--trace", type=int, choices=(0, 1), default=0)
        s.add_argument("--workload", action="append", choices=WORKLOADS)
        s.add_argument("--out", required=True)
        d = sub.add_parser("diff")
        d.add_argument("base")
        d.add_argument("new")
        t = sub.add_parser("selftest")
        t.add_argument("--seed", type=int, default=1)
        t.add_argument("--workload", action="append", choices=WORKLOADS)
        args = p.parse_args()
        {"sweep": sweep, "diff": diff, "selftest": selftest}[args.mode](args)
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    build()
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))))


if __name__ == "__main__":
    main()
