"""Run two sets of benchmark runs of the same code and report whether they
agree within the bounds in BENCHMARK.json.

    python3 perfbench/compare.py                  # 2 sets x 10 seeds, every workload
    python3 perfbench/compare.py --sets 1 --runs 5 --workloads skewed-sampled

Runs go one at a time, set 1 (seeds 1..N) then set 2 (seeds 101..100+N), per
workload. For every end-to-end metric it prints each set's median and
quartile spread (q3 - q1 as a share of the median) and checks that

* every spread, ``setup_s`` included, is within the metric's bound,
* the second set's median is not worse than the first's by more than it,
* every run is correct and fails exactly the same share of its operations.

It also prints each set's median time of the reference task the run
calibrates its times by, so a machine that got slower shows.
Raw results go to ``perfbench/out/compare-<time>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    ref = next(ln.split() for ln in lines if ln.startswith("reference_s"))
    result["reference_s"] = float(ref[2])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]
    all_results: dict[str, list[list[dict]]] = {}
    ok = True
    for workload in names:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                r = one_run(workload, 100 * k + i + 1, bench["run_seconds"])
                runs.append(r)
                print(f"{workload} set {k + 1} seed {r['seed']}: {r['wall_s']:.1f} s", flush=True)
            sets.append(runs)
        all_results[workload] = sets

        print(f"\n== {workload}")
        flat = [r for runs in sets for r in runs]
        shares = {Fraction(r["failed"], r["attempted"]) for r in flat}
        if len(shares) != 1 or not all(r["correct"] for r in flat):
            ok = False
            print(f"  FAIL: failed shares {sorted(shares)}, correct {[r['correct'] for r in flat]}")
        else:
            print(f"  correct; failed share {shares.pop()} in every run")
        refs = [statistics.median(r["reference_s"] for r in runs) for runs in sets]
        print("  reference task median: " + "  ".join(f"set {k + 1} {v:.5f} s" for k, v in enumerate(refs)))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            row = "  ".join(f"set {k + 1} median {med:.5g} spread {sp:.3f}" for k, (med, sp) in enumerate(stats))
            fatal, warn = [], []
            for k, (_, sp) in enumerate(stats):
                if sp > bound:
                    fatal.append(f"set {k + 1} spread over bound")
                elif sp > bound / 3:
                    warn.append(f"set {k + 1} spread over bound/3")
            if len(stats) == 2:
                m1, m2 = stats[0][0], stats[1][0]
                worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
                row += f"  worse by {worse:+.3f}"
                if worse > bound:
                    fatal.append("second median worse than bound")
            ok = ok and not fatal
            print(f"  {name:<18} bound {bound:<5} {row}  {'; '.join(fatal + warn) or 'ok'}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(all_results, indent=1))
    print(f"\n{'AGREE' if ok else 'DISAGREE'}; raw results in {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
