#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The script builds the runner
from source with dune (into the checkout's _build), runs it, enforces
the fixed-work self-check (a second run of the same executable with the
same arguments must reproduce every exact count), and prints the result
object as the last stdout line. With --smoke it runs every workload at
its smoke size, traced and untraced, and checks every output check and
the output format against BENCHMARK.json: the benchmark's own test.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    # Keep every build and runtime artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    return env


def build():
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=child_env(), stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0 and os.path.exists(EXE)


def run_bench(workload, seed, seconds, trace, smoke=False):
    """Run bench.exe once; return its parsed last line, or None."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload}: bench.exe exceeded {RUN_TIMEOUT_S}s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: bench.exe exited with code {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: unparseable bench.exe output: {lines[-1][:200]}")
        return None


def exe_digest():
    with open(EXE, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def self_check(key, counts):
    """Compare exact counts with an earlier run of the same arguments.

    Same seed, same op count, same executable: every count must repeat
    bit for bit. If one differs, timing spread no longer comes from the
    machine alone, so the run is marked incorrect. The key holds the
    executable's digest, so a rebuilt runner starts a fresh record
    instead of being held to counts an earlier version produced.
    """
    path = os.path.join(OUT, "counts", f"{key}-{exe_digest()}.json")
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        diff = {k: (before.get(k), v) for k, v in counts.items() if before.get(k) != v}
        diff.update({k: (v, None) for k, v in before.items() if k not in counts})
        if diff:
            log("!" * 72)
            log(f"FIXED-WORK SELF-CHECK FAILED for {key}: exact counts differ "
                f"from an earlier run with the same arguments (before, now): {diff}")
            log("!" * 72)
            return False
        return True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f, sort_keys=True)
    return True


def result_of(raw, key):
    counts = raw.pop("counts", {})
    if not self_check(key, counts):
        raw["correct"] = False
    return raw


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            name = w["name"]
            raw = run_bench(name, 7, spec["run_seconds"], trace, smoke=True)
            if raw is None:
                ok = False
                continue
            res = result_of(raw, f"smoke-{name}-t{trace}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            problems = []
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("output checks failed")
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append(f"{k} is not a number")
            log(f"smoke {name} trace={trace}: " + ("ok" if not problems else "; ".join(problems)))
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)
    if not build():
        log("build failed")
        return 1
    if args.smoke:
        return 0 if smoke() else 1
    if not args.workload:
        ap.error("--workload is required")
    raw = run_bench(args.workload, args.seed, args.seconds, args.trace)
    if raw is None:
        return 1
    key = f"{args.workload}-seed{args.seed}-s{args.seconds}-t{args.trace}"
    print(json.dumps(result_of(raw, key)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
