"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --out .perfbench_out/sweep.json
    python3 perfbench/sweep.py --seeds 1-10 --workloads score_batch --traced-seed 1

For every workload, runs ``run.py --trace 0`` once per seed, one after the
other, then ``--trace 1`` once for ``--traced-seed`` (when given). For each
end-to-end metric it reports the median and quartiles over the seeds and the
spread the benchmark is judged by: (Q3 - Q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them. Exits 1 when a run fails or
a spread exceeds its bound.

perfbench/results/baseline.json is this script's output (seeds 1-10,
traced seed 1) on the code the benchmark was introduced with.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    if result is not None:
        result["env"] = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    return result, wall


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--traced-seed", type=int, help="also run --trace 1 once with this seed")
    parser.add_argument("--out", default=".perfbench_out/sweep.json")
    parser.add_argument("--note", default="", help="free text stored in the summary, e.g. the commit measured")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {"note": args.note, "seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        runs, walls = [], []
        for seed in seeds:
            result, wall = run_once(name, seed, bench["run_seconds"], 0)
            walls.append(wall)
            if result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                continue
            runs.append(result)
            summary.setdefault("env", {k: v for k, v in result["env"].items() if k not in ("workload", "seed", "trace")})
            print(f"{name} seed {seed}: {wall:.1f}s wall", file=sys.stderr)
        entry = {"wall_s": walls, "end_to_end": {}}
        if len(runs) >= 2:
            for metric in bounds:
                stats = summarise([r["metrics"][metric]["value"] for r in runs])
                stats["bound"] = bounds[metric]
                entry["end_to_end"][metric] = stats
                if stats["spread"] is not None and stats["spread"] > bounds[metric]:
                    ok = False
                print(f"  {metric:20s} median {stats['median']:.6g} spread {stats['spread']:.3f} bound {bounds[metric]}", file=sys.stderr)
        if args.traced_seed is not None:
            result, wall = run_once(name, args.traced_seed, bench["run_seconds"], 1)
            ok = ok and result is not None and result["correct"]
            entry["traced"] = {"seed": args.traced_seed, "wall_s": wall, "per_layer": result and result["metrics"]}
        summary["workloads"][name] = entry

    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
