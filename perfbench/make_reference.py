"""Regenerates ``reference.json``, the benchmark's output oracle.

    python3 perfbench/make_reference.py

Run once, from the repository root, on the commit whose outputs define
"correct".  It writes:

- ``catalogue``: the analytic-cli inputs (operating points drawn once from
  the paper's plotted ranges, inside the validated domain, with no input
  repeated) with the outputs the CLI gave for them: closed-form point
  reports, optimize/switch results and fine-grid analytic sweep tables;
- ``mc``: for each Monte Carlo workload, the closed-form columns of every row
  and a high-trial simulation of each cell, which measures how far the
  closed forms sit from the simulated law (the hardening bias).
"""
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
import secrelay.cli  # noqa: E402

CATALOGUE_SEED = 150502992
# At least the commands of each kind in one analytic-cli pass, which draws
# them without replacement.
N_POINTS, N_OPTIMIZE, N_SWITCH, N_SWEEPS = 512, 128, 128, 9
REF_SEED = 987654321  # Monte Carlo seed of the reference simulation; no workload draws it
REF_TRIALS = 100_000  # trials of the reference simulation per cell

# Fine-grid analytic sweeps at the operating points of Figs. 5, 4 and 2; the
# rest of the sweep catalogue runs the same axes at drawn operating points.
SWEEPS = (
    {"p_s_db": 10.0, "epsilon": 0.05, "variable": "relay-power-db",
     "grid": {"lo": -10.0, "hi": 50.0, "step": 0.1}},
    {"p_r_db": 10.0, "epsilon": 0.05, "variable": "source-power-db",
     "grid": {"lo": -10.0, "hi": 50.0, "step": 0.1}},
    {"epsilon": 0.01, "variable": "alpha-re", "grid": {"lo": 0.1, "hi": 3.0, "step": 0.005}},
)
ANALYTIC = {"rho": 0.9, "n_r": 100, "schemes": ["AF", "DF"], "mode": "analytic"}


def draw_point(rng) -> dict:
    """One operating point from the ranges the paper plots."""
    return {
        "p_s_db": round(rng.uniform(-10.0, 40.0), 1),
        "p_r_db": round(rng.uniform(-10.0, 50.0), 1),
        "alpha_re": round(rng.uniform(0.1, 3.0), 2),
        "rho": round(rng.uniform(0.5, 1.0), 2),
        "n_r": rng.choice([50, 100, 200]),
        "epsilon": rng.choice([0.001, 0.01, 0.05, 0.1]),
    }


def point_argv(p) -> list:
    return ["--p-s-db", str(p["p_s_db"]), "--p-r-db", str(p["p_r_db"]),
            "--alpha-re", str(p["alpha_re"]), "--rho", str(p["rho"]),
            "--n-r", str(p["n_r"]), "--epsilon", str(p["epsilon"])]


def run(argv) -> str:
    code, out, err, _ = runner.run_command(secrelay.cli.main, argv)
    if code != 0:
        raise RuntimeError(f"{argv}: exit {code}: {err}")
    return out


def write_config(tmp: Path, doc) -> Path:
    path = tmp / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run_config(kind, doc, tmp: Path, extra=()) -> str:
    return run([kind, "--config", str(write_config(tmp, doc)), *extra])


def catalogue(tmp: Path) -> dict:
    rng = random.Random(CATALOGUE_SEED)
    points = []
    for _ in range(N_POINTS):
        argv = point_argv(draw_point(rng))
        points.append({"argv": argv, "expect": json.loads(run(["point", *argv]))})

    optimize = []
    while len(optimize) < N_OPTIMIZE:
        p = draw_point(rng)
        del p["p_r_db"]
        doc = dict(p, variable="relay-power-db", grid={"lo": -10.0, "hi": 50.0, "step": 1.0},
                   schemes=["AF", "DF"], mode="analytic")
        code, out, _, _ = runner.run_command(
            secrelay.cli.main, ["optimize", "--config", str(write_config(tmp, doc))])
        if code == 0:  # skip points where a scheme has no secrecy anywhere
            optimize.append({"config": doc, "expect": json.loads(out)})

    switch = []
    for i in range(N_SWITCH):
        p = draw_point(rng)
        if i % 2:
            del p["p_s_db"]
            axis = {"variable": "source-power-db", "grid": {"lo": -10.0, "hi": 40.0, "step": 1.0}}
        else:
            del p["p_r_db"]
            axis = {"variable": "relay-power-db", "grid": {"lo": -10.0, "hi": 50.0, "step": 1.0}}
        doc = dict(p, **axis, schemes=["AF", "DF"], mode="analytic")
        switch.append({"config": doc, "expect": json.loads(run_config("switch", doc, tmp))})

    sweeps = []
    for i in range(N_SWEEPS):
        spec = SWEEPS[i % len(SWEEPS)]
        doc = dict(ANALYTIC, **spec)
        if i >= len(SWEEPS):
            swept = {"relay-power-db": "p_r_db", "source-power-db": "p_s_db",
                     "alpha-re": "alpha_re"}[spec["variable"]]
            doc.update((k, v) for k, v in draw_point(rng).items() if k != swept)
        out = tmp / "sweep.csv"
        run_config("sweep", doc, tmp, ("--out", str(out)))
        header, rows = oracle.read_report(out)
        sweeps.append({"config": doc, "expect": {"header": header, "rows": rows}})
    doc = {"point": points, "optimize": optimize, "switch": switch, "sweep": sweeps}
    for kind, entries in doc.items():
        inputs = [json.dumps(e.get("argv") or e["config"], sort_keys=True) for e in entries]
        if len(set(inputs)) != len(inputs):
            raise RuntimeError(f"catalogue {kind!r} repeats an input; change CATALOGUE_SEED")
    return doc


def mc_reference(workload: str, tmp: Path) -> dict:
    doc = workloads.mc_config(workload, workloads.Size(trials=REF_TRIALS), REF_SEED)
    out = tmp / "mc.csv"
    run_config("sweep", doc, tmp, ("--out", str(out)))
    header, rows = oracle.read_report(out)
    table = {}
    for row in rows:
        named = dict(zip(header, row))
        cells = {}
        for scheme in doc["schemes"]:
            s = scheme.lower()
            cells[scheme] = {
                "c_d": named[f"{s}_c_d"],
                "c_soc_analytic": named[f"{s}_c_soc_analytic"],
                "p0_analytic": named[f"{s}_p0_analytic"],
                "c_soc_ref": named[f"{s}_c_soc_mc"],
                "c_soc_ref_stderr": named[f"{s}_c_soc_mc_stderr"],
                "p0_ref": named[f"{s}_p0_mc"],
                "p0_ref_stderr": named[f"{s}_p0_mc_stderr"],
            }
        table[format(row[0], ".9g")] = cells
    return {"ref_trials": REF_TRIALS, "ref_seed": REF_SEED, "rows": table}


def git_sha() -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def main() -> int:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        doc = {
            "generated_from": {"git_sha": git_sha(), **runner.versions()},
            "catalogue": catalogue(tmp),
            "mc": {w: mc_reference(w, tmp) for w in workloads.MC_BASE},
        }
    (HERE / "reference.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
