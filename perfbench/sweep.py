"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload compare --seeds 1-10 [--trace 0] \\
        [--seconds 30] [--out perfbench/baseline/compare.json]

``--seeds held-out`` runs the one seed kept out of tuning, on which a later
performance claim must also hold.

Runs are sequential, one fresh process each.  For every metric the summary
gives the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median.  The result file keeps every run's duration, its result
line and the environment it was measured in.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Not used while tuning the benchmark; kept for checking later claims.
HELD_OUT_SEED = 9001


def seed_list(text: str) -> list:
    if text == "held-out":
        return [HELD_OUT_SEED]
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "unit": runs[0]["result"]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=True)
        info_line, result_line = done.stdout.strip().splitlines()[-2:]
        run = {"seed": seed, "elapsed_s": time.perf_counter() - t0,
               "info": json.loads(info_line), "result": json.loads(result_line)}
        runs.append(run)
        res = run["result"]
        print(f"seed {seed} ({run['elapsed_s']:.0f} s): "
              f"attempted {res['attempted']} failed {res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)

    summary = summarise(runs)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name}: median {s['median']:.6g} {s['unit']}  spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
