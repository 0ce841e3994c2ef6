"""Alternating base/change pairs of the benchmark, with an A/A control, in one JSON file.

    python3 scripts/bench_pairs.py --base HEAD~1 --head HEAD --out BENCH.json

The run length, the workloads and the driver command are those of
BENCHMARK.json (``run_seconds``, ``workloads``, ``command``), and there are
always ten pairs, so every file this script writes covers what the benchmark
compares.  Each side is exported with ``git archive`` into its own directory
under a temporary directory, so both run the committed files only, and both
are byte-compiled before the first run, so neither starts with a
``__pycache__`` the other lacks.  The base is exported twice: the second copy
is the A/A control, a change that changes nothing.  Pair ``i`` runs every
workload in turn, so drift that outlasts a pair hits all workloads alike.
Each workload runs the benchmark command with ``--trace 0`` on the three
trees at seed ``seeds[i]``: base, change, base copy in even pairs and base
copy, change, base in odd ones, so that both comparisons are balanced
against drift within a pair.
The first seed is the holdout seed 20261017.  For every workload and every
end-to-end metric of BENCHMARK.json the output holds each side's median and
quartiles, the change's median relative change, the number of pairs the
change wins, and whether the median gap exceeds the base's interquartile
range.  ``aa_control`` holds the same summary with the base copy in the
place of the change: a claimed gain has to beat the gap and the wins it
shows.  ``--head`` may name any commit, e.g. one made by ``git stash create``
to measure an uncommitted tree.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 10
HOLDOUT_SEED = 20261017
SIDES = ("base", "head", "base_copy")  # run order in even pairs; reversed in odd ones


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """Writes the files of ``rev`` to ``dest`` and byte-compiles them."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    subprocess.run([BENCH["command"][0], "-m", "compileall", "-q", str(dest / "src"),
                    str(dest / "perfbench")], check=True)
    return dest


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run: the driver's JSON line plus the environment it recorded."""
    proc = subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads(
        (tree / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        "env": result["env"],
    }


def spread(values) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs, side: str) -> dict:
    """The end-to-end metrics of ``side`` against those of the base, pair by pair."""
    summary = {}
    for metric in BENCH["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["base"]["metrics"][name] for r in runs]
        head = [r[side]["metrics"][name] for r in runs]
        b, h = spread(base), spread(head)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(base, head))
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": b,
            "head": h,
            "median_change_frac": h["median"] / b["median"] - 1.0 if b["median"] else None,
            "head_wins": wins,
            "pairs": len(runs),
            "median_gap_exceeds_base_iqr": abs(h["median"] - b["median"]) > b["iqr"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="base commit (default HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="changed commit (default HEAD)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    seeds = [HOLDOUT_SEED] + [41 + i for i in range(PAIRS - 1)]
    base_sha = git("rev-parse", args.base)
    shas = {"base": base_sha, "head": git("rev-parse", args.head), "base_copy": base_sha}
    doc = {
        "base_sha": shas["base"],
        "head_sha": shas["head"],
        "seconds": BENCH["run_seconds"],
        "seeds": seeds,
        "holdout_seed": HOLDOUT_SEED,
        "order": "every workload in each pair; base, change, base copy in even pairs "
                 "and the reverse in odd pairs",
        "workloads": {},
    }
    names = [w["name"] for w in BENCH["workloads"]]
    runs = {name: [] for name in names}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: export(sha, Path(tmp) / side) for side, sha in shas.items()}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in names:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
                runs[workload].append(pair)
            first = runs[names[0]][0]
            doc["env"] = {key: first["head"]["env"].get(key)
                          for key in ("numpy", "python", "nproc", "machine")}
            doc["src_sha256"] = {side: first[side]["env"]["src_sha256"] for side in SIDES}
            doc["workloads"] = {workload: {
                "all_correct": all(r[s]["correct"] and r[s]["failed"] == 0
                                   for r in pairs for s in SIDES),
                "metrics": summarise(pairs, "head"),
                "aa_control": summarise(pairs, "base_copy"),
                "runs": [{key: ({k: v for k, v in val.items() if k != "env"}
                                if key in SIDES else val) for key, val in r.items()}
                         for r in pairs],
            } for workload, pairs in runs.items()}
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
