#!/usr/bin/env python3
"""Build and run kvx_bench, or compare two sets of its results.

Run one workload (builds into .bench_build/ at the repository root first):

    python3 kvxbench/run.py --workload kyber-xof --seed 7 --seconds 15 --trace 0
    python3 kvxbench/run.py --workload kyber-xof --seed 7 --seconds 15 --trace 1
    python3 kvxbench/run.py --workload serve-open --trace out/serve.json  # Chrome trace
    python3 kvxbench/run.py                  # smoke test of every workload
    python3 kvxbench/run.py --calibrate      # derive the serve-open rates

Add `--save DIR` to a workload run to keep its exit code and result as
DIR/<workload>.<seed>.<n>.json.

Compare a parent set against a change set (paired by workload and seed);
a workload whose change runs fail where the parent's did not is "worse":

    python3 kvxbench/run.py --compare parent_dir change_dir

The last line of standard output of a run is the benchmark's JSON result.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "kvx_bench"


def build():
    """Configure (once) and build kvx_bench from the sources in this tree."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("kvxbench: the repository sources are not next to kvxbench/; "
              "nothing to build", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "kvx_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("kvxbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return BINARY.is_file()


def last_json(text):
    """The JSON object on the last line of `text`, or None."""
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run(args):
    save_dir = None
    if "--save" in args:
        i = args.index("--save")
        if i + 1 >= len(args):
            print("kvxbench: --save needs a directory", file=sys.stderr)
            return 2
        save_dir = Path(args[i + 1])
        args = args[:i] + args[i + 2:]
        if "--workload" not in args:
            print("kvxbench: --save needs --workload (the smoke test has no "
                  "result to save)", file=sys.stderr)
            return 2
    if not build():
        return 2
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if save_dir is not None:
        # The exit code and the whole result are kept, so that --compare can
        # refuse a change whose runs fail where the parent's did not.
        opts = dict(zip(args[::2], args[1::2]))
        workload, seed = opts["--workload"], opts.get("--seed", "1")
        save_dir.mkdir(parents=True, exist_ok=True)
        n = 0
        while (save_dir / f"{workload}.{seed}.{n}.json").exists():
            n += 1
        record = {"workload": workload, "seed": seed,
                  "returncode": proc.returncode,
                  "result": last_json(proc.stdout)}
        (save_dir / f"{workload}.{seed}.{n}.json").write_text(
            json.dumps(record) + "\n")
    return proc.returncode


def load_results(directory):
    """{(workload, seed, n): saved record} from one result directory."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        key = (rec["workload"], rec["seed"])
        n = sum(1 for k in out if k[:2] == key)
        out[key + (n,)] = rec
    return out


def metrics_of(rec):
    result = rec.get("result") or {}
    return {k: v["value"] for k, v in result.get("metrics", {}).items()}


def correct(rec):
    """The run exited 0 and reported every output correct."""
    result = rec.get("result") or {}
    return rec.get("returncode") == 0 and result.get("correct") is True


def failed_ops(rec):
    return (rec.get("result") or {}).get("failed", 0)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, higher, bound):
    """improved / unchanged / worse / unresolved for one metric.

    `a` and `b` are paired runs (same workload and seed) of the parent and
    the change. A gain needs >= 10 pairs, >= 9/10 wins and a median gap
    larger than the parent's interquartile range; a regression is a median
    worse by more than the bound. When the parent's own spread exceeds the
    bound the metric is unresolved unless every change run beats every
    parent run.
    """
    def better(x, y):
        return x > y if higher else x < y

    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b, iqr_a = qa[1], qb[1], qa[2] - qa[0]
    gain = (med_b - med_a) if higher else (med_a - med_b)
    wins = sum(1 for x, y in zip(a, b) if better(y, x))
    all_better = all(better(y, x) for x in a for y in b)
    if bound is None:  # per-layer metrics carry no bound: report movement
        return ("moved" if abs(gain) > iqr_a and len(a) >= 2 else "unchanged")
    scale = abs(med_a) if med_a != 0 else 1.0
    if iqr_a / scale > bound and not all_better:
        return "unresolved"
    if -gain > bound * scale:
        return "worse"
    if len(a) >= 10 and wins >= 0.9 * len(a) and gain > iqr_a:
        return "improved"
    return "unchanged"


def compare(dir_a, dir_b):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    res_a, res_b = load_results(dir_a), load_results(dir_b)
    keys = sorted(set(res_a) & set(res_b))
    if not keys:
        print("kvxbench: no paired results (same workload and seed) in "
              f"{dir_a} and {dir_b}", file=sys.stderr)
        return 2
    worse = 0
    print(f"{'workload':<11} {'metric':<32} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8}  verdict")
    for workload in sorted({k[0] for k in keys}):
        wkeys = [k for k in keys if k[0] == workload]
        # A change run that fails, or fails more operations than its paired
        # parent run, makes the workload worse whatever its timings say.
        bad_a = sum(not correct(res_a[k]) for k in wkeys)
        bad_b = sum(not correct(res_b[k]) or
                    failed_ops(res_b[k]) > failed_ops(res_a[k])
                    for k in wkeys)
        v = "worse" if bad_b else "unresolved" if bad_a else "unchanged"
        worse += v == "worse"
        print(f"{workload:<11} {'correct runs':<32} "
              f"{len(wkeys) - bad_a:>12} of {len(wkeys):<19} "
              f"{len(wkeys) - bad_b:>12} of {len(wkeys):<19} {'':>8}  {v}")
        ma = {k: metrics_of(res_a[k]) for k in wkeys}
        mb = {k: metrics_of(res_b[k]) for k in wkeys}
        mkeys = [k for k in wkeys if ma[k] and mb[k]]
        names = [n for n in kinds if mkeys and all(n in ma[k] and n in mb[k]
                                                   for k in mkeys)]
        for name in names:
            a = [ma[k][name] for k in mkeys]
            b = [mb[k][name] for k in mkeys]
            m = kinds[name]
            v = verdict(a, b, m.get("better", "higher") == "higher",
                        m.get("bound"))
            worse += v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] / qa[1] - 1.0) * 100.0 if qa[1] else 0.0
            print(f"{workload:<11} {name:<32} "
                  f"{qa[1]:>12.5g} [{qa[0]:>9.4g}, {qa[2]:>9.4g}] "
                  f"{qb[1]:>12.5g} [{qb[0]:>9.4g}, {qb[2]:>9.4g}] "
                  f"{delta:>+7.2f}%  {v}")
    print(f"{len(keys)} paired runs; {worse} row(s) worse")
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print("usage: run.py --compare PARENT_DIR CHANGE_DIR",
                  file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
