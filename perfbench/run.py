#!/usr/bin/env python3
"""HolMS end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the library from src/ plus the holms_perfbench program)
into $CARGO_TARGET_DIR, or .bench_build when that is unset (one build tree
per checkout path and source digest), runs one
workload and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
BENCHMARK.json and perfbench/NOTES.md).  Each run also writes a host-stamped
result file, and with --trace 1 the span log, to
<build dir>/perfbench-results/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("design_farm32", "noc_farm16", "serve_mixed", "serve_fgs")
# Never used while tuning the benchmark or a change: validate claims on it.
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(digest):
    """Configures (once) and builds holms_perfbench; returns its path.

    The build tree is specific to this checkout's path and source digest.
    CMakeCache.txt pins the source directory, so a tree shared by two
    checkouts under one $CARGO_TARGET_DIR would rebuild the first checkout's
    sources; and a checkout whose files carry older mtimes than the objects
    of another version would not be rebuilt at all."""
    tag = hashlib.sha256(f"{ROOT}\0{digest}".encode()).hexdigest()[:12]
    bdir = os.path.join(build_dir(), f"perfbench-{tag}")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", bdir, "--target", "holms_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(bdir, "holms_perfbench")


def run_benchmark(exe, args, out_path, spans_path):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    # On timeout the child is killed and reaped before the exception.
    subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)


def source_digest():
    """sha256 over every file of src/ and perfbench/ (the checkout may not be
    a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def check_repeat(results_dir, digest, args, raw):
    """Simulated outputs and fingerprints must repeat exactly for a seed
    across runs (traced or not) of the same code.  Returns True when they do.
    Keyed by source digest: a new version of the code may rightly move them
    and starts its own entry."""
    path = os.path.join(results_dir, "outputs-by-seed.json")
    store = {}
    if os.path.isfile(path):
        with open(path) as f:
            store = json.load(f)
    key = f"{digest}/{args.workload}/{args.seed}"
    mine = {"fingerprints": raw["fingerprints"], "values": raw["values"]}
    if key in store:
        return store[key] == mine
    store[key] = mine
    with open(path + ".tmp", "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed == HELD_OUT_SEED:
        log(f"note: seed {HELD_OUT_SEED} is the held-out validation seed")

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
            raise RuntimeError("library sources (src/) not found next to perfbench/")
        digest = source_digest()
        exe = build(digest)
        results_dir = os.path.join(build_dir(), "perfbench-results")
        os.makedirs(results_dir, exist_ok=True)
        stem = os.path.join(results_dir,
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")
        run_benchmark(exe, args, stem + ".raw.json", stem + ".spans.jsonl")
        with open(stem + ".raw.json") as f:
            raw = json.load(f)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1

    attempted, failed = raw["attempted"], raw["failed"]
    attempted += 1
    if not check_repeat(results_dir, digest, args, raw):
        failed += 1
        log("check failed: outputs_repeat_across_runs")
    for name, c in sorted(raw["checks"].items()):
        if c["failed"]:
            log(f"check failed: {name} ({c['failed']}/{c['attempted']})")

    if args.trace:
        values = dict(raw["per_layer"], error_rate=failed / attempted)
    else:
        values = {"wall_s": statistics.median(raw["pass_s"]),
                  "setup_s": statistics.median(raw["setup_s"]),
                  "peak_rss_mb": raw["peak_rss_mb"]}
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics(kind)}

    stamp = dict(raw["host"])
    stamp.update({"workload": args.workload, "seed": args.seed,
                  "nproc": os.cpu_count(), "cpu_model": cpu_model(),
                  "git_commit": git_commit(), "source_digest": digest})
    record = {"host": stamp, "seconds": args.seconds, "trace": args.trace,
              "passes": len(raw["pass_s"]), "traced_passes": len(raw["traced_pass_s"]),
              "setups": len(raw["setup_s"]), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("# host " + json.dumps(stamp, sort_keys=True))
    print(f"# {args.workload} seed {args.seed}: {len(raw['pass_s'])} untraced + "
          f"{len(raw['traced_pass_s'])} traced passes, {len(raw['setup_s'])} set-ups")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def declared_metrics(kind):
    """(name, unit) of every metric BENCHMARK.json declares under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


if __name__ == "__main__":
    sys.exit(main())
