"""Runs the benchmark once per seed and prints each metric's median and
spread: the distance between its first and third quartiles as a share of
its median, as statistics.quantiles(values, n=4) gives them.

    python3 perfbench/spread.py <workload> <seconds> <trace> <seed>...

Run it from the repository root.
"""
import json
import statistics
import subprocess
import sys


def main():
    workload, seconds, trace, seeds = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    values = {}
    for seed in seeds:
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", workload, "--seed", seed,
             "--seconds", seconds, "--trace", trace],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(seed, " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)
    if len(seeds) < 2:
        return
    for name, v in sorted(values.items()):
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:34s} median={med:<12.6g} spread={spread:.3f} min={min(v):.5g} max={max(v):.5g}")


if __name__ == "__main__":
    main()
