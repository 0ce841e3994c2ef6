"""Smoke tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest -q perfbench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = oracle.load_reference(HERE / "reference.json")


def _names(key):
    return {m["name"]: m["unit"] for m in BENCH[key]}


def test_benchmark_file_follows_its_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_emits_every_metric(workload):
    result = run.run_workload(workload, seed=3, seconds=0.1, trace=True, tiny=True)
    assert result["attempted"] >= 1 and result["failed"] == 0, result["errors"]
    line = run.report(result, BENCH)
    assert line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _names("per_layer")
    assert set(_names("end_to_end")) <= set(result["end_to_end"])
    assert all(result["end_to_end"][name] > 0 for name in _names("end_to_end"))
    layers = result["per_layer"]
    if workload == "analytic-cli":
        assert layers["channel.draw_channels.calls"] == 0
        assert layers["decision.optimal_relay_power.evals"] > 0
    else:
        assert layers["channel.redraw_frac"] == (0.5 if workload == "fig5-both" else 0.0)
        assert layers["decision.optimal_relay_power.evals"] == 0


def test_generator_is_a_function_of_the_seed(tmp_path):
    def commands(seed):
        gen = workloads.Generator("analytic-cli", seed, tmp_path, REFERENCE["catalogue"], tiny=True)
        return [c.argv for c in gen.next_pass()]
    assert commands(5) == commands(5)
    assert commands(5) != commands(6)


def test_no_input_repeats_within_a_pass(tmp_path):
    gen = workloads.Generator("analytic-cli", 5, tmp_path, REFERENCE["catalogue"])
    first, second = ([c.ref for c in gen.next_pass()] for _ in range(2))
    assert len(first) == sum(count for _, count in workloads.CLI_MIX)
    assert len(set(first)) == len(first)
    assert sorted(first) == sorted(second)  # every pass does the same work


def test_wrong_outputs_count_as_failed_commands(monkeypatch):
    honest = workloads.Generator._cli_pass

    def corrupt(self, index):  # every point command asks about another operating point
        return [workloads.Command(argv=(*c.argv, "--rho", "0.333"), kind=c.kind, ref=c.ref)
                if c.kind == "point" else c for c in honest(self, index)]

    monkeypatch.setattr(workloads.Generator, "_cli_pass", corrupt)
    result = run.run_workload("analytic-cli", seed=3, seconds=0.1, trace=False, tiny=True)
    points = dict(workloads.TINY["analytic-cli"].mix)["point"]
    assert result["failed"] == points
    assert result["end_to_end"]["ops_failed_frac"] == points / result["attempted"]
    assert not run.report(result, BENCH)["correct"]


def _mc_report(tmp_path, workload, edit=None):
    """A report whose Monte Carlo cells equal the reference simulation."""
    rows = REFERENCE["mc"][workload]["rows"]
    schemes = workloads.MC_BASE[workload]["schemes"]
    header = ["value"] + [f"{s.lower()}_{f}" for s in schemes
                          for f in oracle.ANALYTIC_FIELDS + oracle.MC_FIELDS]
    lines = [",".join(header)]
    for key, cells in rows.items():
        named = {"value": float(key)}
        for s in schemes:
            ref = cells[s]
            named.update({f"{s.lower()}_{f}": ref[f] for f in oracle.ANALYTIC_FIELDS})
            named.update({f"{s.lower()}_c_soc_mc": ref["c_soc_ref"],
                          f"{s.lower()}_c_soc_mc_stderr": ref["c_soc_ref_stderr"],
                          f"{s.lower()}_p0_mc": ref["p0_ref"],
                          f"{s.lower()}_p0_mc_stderr": ref["p0_ref_stderr"]})
        if edit is not None:
            edit(key, named)
        lines.append(",".join(repr(named[h]) for h in header))
    path = tmp_path / "report.csv"
    path.write_text("\n".join(lines) + "\n")
    return path, rows


@pytest.mark.parametrize("column, value", [
    ("af_c_soc_mc", math.nan),          # non-finite
    ("af_p0_mc", 1.5),                  # out of range
    ("af_c_soc_analytic", 12345.0),     # closed form differs from the reference
    ("af_c_soc_mc", 0.5),               # far from the closed form
    ("af_c_soc_mc_stderr", 0.0),        # stderr far below the reference's
    ("af_p0_mc_stderr", 0.3),           # not the binomial stderr of p0
])
def test_corrupted_monte_carlo_cell_fails_its_row(tmp_path, column, value):
    trials = REFERENCE["mc"]["fig5-both"]["ref_trials"]
    path, rows = _mc_report(tmp_path, "fig5-both")
    assert oracle.check_mc_report(path, rows, trials, trials)[:2] == (len(rows), 0)

    def edit(key, named):
        if key == "10":
            named[column] = value

    path, rows = _mc_report(tmp_path, "fig5-both", edit)
    attempted, failed, errors = oracle.check_mc_report(path, rows, trials, trials)
    assert (attempted, failed) == (len(rows), 1), errors


def test_halved_stderr_column_fails_the_run(tmp_path):
    trials = REFERENCE["mc"]["fig5-both"]["ref_trials"]
    eps = workloads.FIG5_BOTH["epsilon"]

    def pooled(factor):
        def edit(key, named):
            for s in ("af", "df"):
                named[f"{s}_c_soc_mc_stderr"] *= factor
        path, rows = _mc_report(tmp_path, "fig5-both", edit)
        ratios = []
        attempted, failed, errors = oracle.check_mc_report(path, rows, trials, trials, ratios)
        assert (attempted, failed) == (len(rows), 0), errors
        return oracle.pooled_stderr_errors(ratios, trials, eps)

    assert pooled(1.0) == []
    assert pooled(0.5) and pooled(2.0)


def test_untraced_runner_installs_no_wrapper(tmp_path):
    cmds, out = tmp_path / "cmds.json", tmp_path / "out.json"
    cmds.write_text(json.dumps([["point"]]))
    assert runner.main(["runner.py", str(cmds), str(out)]) == 0
    assert json.loads(out.read_text())["commands"][0][0] == 0
    for module, attr, _ in tracer.WRAPPED:
        assert not hasattr(getattr(sys.modules[module], attr), "__wrapped__")


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fig5-both",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_self_time_subtracts_the_union_of_child_spans():
    doc = {"spans": [
        [1, 0, 0, "montecarlo.estimate", 10, 30],
        [2, 0, 0, "montecarlo.empirical_quantile", 25, 45],
        [0, -1, 0, "sweep.run_sweep", 0, 100],
    ], "counters": {}}
    layers = tracer.summarize(doc)
    assert layers["montecarlo.estimate.self_s"] == 20e-9
    assert layers["sweep.run_sweep.self_s"] == 65e-9  # children cover [10, 45]


def test_scipy_import_time_is_read_from_importtime_log():
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:       150 |        150 |     scipy._lib\n"
           "import time:      1000 |       1300 |   scipy.stats\n"
           "import time:        50 |         50 | numpy.linalg\n")
    assert run.scipy_import_s(log) == pytest.approx(1150e-6)
