import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import secrelay
from secrelay.analytic import Scheme, scheme_report
from secrelay.cli import main
from secrelay.montecarlo import estimate
from secrelay.params import SystemParams
from secrelay.sweep import (
    MAX_GRID_POINTS,
    PRESETS,
    ConfigError,
    RowError,
    emit_report,
    parse_config,
    preset_specs,
    run_sweep,
)

MINIMAL = {
    "variable": "alpha-re",
    "grid": [0.5, 1.0, 2.0],
    "schemes": ["AF", "DF"],
    "mode": "analytic",
}


def config(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "secrelay", *args], capture_output=True, text=True,
    )


# ---------------------------------------------------------------- parse_config

def test_minimal_config_uses_reference_defaults():
    spec = parse_config(config())
    assert spec.base == SystemParams()
    assert spec.grid == (0.5, 1.0, 2.0)
    assert spec.schemes == (Scheme.AF, Scheme.DF)
    assert spec.trials is None and spec.seed is None


def test_db_keys_convert_at_the_boundary():
    spec = parse_config(config(p_s_db=10, p_r_db=0))
    assert spec.base.p_s == pytest.approx(10.0)
    assert spec.base.p_r == pytest.approx(1.0)


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"bogus": 1}, "bogus"),
        ({"grid": {"lo": 3.0, "hi": 1.0, "step": 0.5}}, "grid"),
        ({"grid": []}, "grid"),
        ({"grid": [1.0, 1.0]}, "grid"),
        ({"grid": {"lo": 1.0, "hi": 2.0}}, "grid"),
        ({"mode": "montecarlo", "trials": 1000}, "seed"),
        ({"mode": "both", "seed": 1}, "trials"),
        ({"trials": 1000}, "trials"),
        ({"p_s": 100, "p_s_db": 20}, "p_s_db"),
        ({"schemes": ["AF", "ZF"]}, "schemes"),
        ({"schemes": []}, "schemes"),
        ({"variable": "alpha-sr"}, "variable"),
        ({"mode": "exact"}, "mode"),
        ({"rho": 1.5}, "rho"),
        ({"n_r": 12.5}, "n_r"),
        ({"mode": "both", "trials": 50, "seed": 1}, "trials"),
        ({"mode": "both", "epsilon": 0.001, "trials": 500, "seed": 1}, "trials"),
        # Integers beyond the float range are not finite numbers.
        ({"n_r": 10**400}, "n_r"),
        ({"mode": "both", "trials": 10**400, "seed": 1}, "trials"),
        ({"mode": "both", "trials": 1000, "seed": 10**400}, "seed"),
        ({"variable": "n-r", "grid": [1, 10**400]}, "grid"),
        # An integer of more digits than json.loads converts (given as text:
        # json.dumps cannot write it either).
        pytest.param(config()[:-1] + ', "n_r": 1' + "0" * 5000 + "}", "<document>",
                     id="n_r-of-5001-digits"),
    ],
)
def test_config_errors_carry_the_field_path(overrides, field):
    text = overrides if isinstance(overrides, str) else config(**overrides)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert field in excinfo.value.field


def test_malformed_json_is_a_config_error():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config("[1, 2, 3]")


def test_range_grid_expansion_is_inclusive():
    spec = parse_config(config(grid={"lo": 0.5, "hi": 1.0, "step": 0.25}))
    assert spec.grid == pytest.approx((0.5, 0.75, 1.0))


def test_range_grid_over_the_point_cap_is_rejected_before_expansion():
    # lo..hi at step 1 holds MAX_GRID_POINTS + 1 points
    with pytest.raises(ConfigError) as excinfo:
        parse_config(config(grid={"lo": 0.0, "hi": float(MAX_GRID_POINTS), "step": 1.0}))
    assert excinfo.value.field == "grid"
    assert str(MAX_GRID_POINTS) in str(excinfo.value)


def test_montecarlo_mode_requires_and_accepts_trials_and_seed():
    spec = parse_config(config(mode="both", trials=500, seed=7))
    assert spec.trials == 500 and spec.seed == 7
    with pytest.raises(ConfigError):
        parse_config(config(mode="both", trials=500, seed=2**64))


# ------------------------------------------------------------------- run_sweep

def test_single_point_sweep_equals_direct_module_calls():
    doc = config(grid=[1.5], mode="both", trials=400, seed=11)
    rows = run_sweep(parse_config(doc))
    assert len(rows) == 1
    p = replace(SystemParams(), alpha_re=1.5)
    for scheme in (Scheme.AF, Scheme.DF):
        s = scheme.value.lower()
        report = scheme_report(scheme, p)
        assert rows[0][f"{s}_c_d"] == report.c_d
        assert rows[0][f"{s}_c_soc_analytic"] == report.c_soc
        assert rows[0][f"{s}_p0_analytic"] == report.p0
        est = estimate(scheme, p, 400, 11 ^ 0)
        assert rows[0][f"{s}_c_soc_mc"] == est.c_soc.value
        assert rows[0][f"{s}_c_soc_mc_stderr"] == est.c_soc.std_error
        assert rows[0][f"{s}_p0_mc"] == est.p0.value
        assert rows[0][f"{s}_p0_mc_stderr"] == est.p0.std_error


def test_rows_follow_grid_order_without_mc_columns_in_analytic_mode():
    rows = run_sweep(parse_config(config()))
    assert [r["value"] for r in rows] == [0.5, 1.0, 2.0]
    assert not any("af_c_soc_mc" in r for r in rows)


def test_rows_reseed_with_seed_xor_row_index():
    doc = config(grid=[0.5, 1.0], schemes=["AF"], mode="both", trials=200, seed=9)
    rows = run_sweep(parse_config(doc))
    p1 = replace(SystemParams(), alpha_re=1.0)
    est = estimate(Scheme.AF, p1, 200, 9 ^ 1)
    assert rows[1]["af_c_soc_mc"] == est.c_soc.value
    assert rows[1]["af_p0_mc"] == est.p0.value


def test_row_errors_carry_row_context():
    spec = parse_config(config(variable="rho", grid=[0.5, 1.5]))
    with pytest.raises(RowError) as excinfo:
        run_sweep(spec)
    assert "row 1" in str(excinfo.value)
    assert "rho=1.5" in str(excinfo.value)


def test_both_mode_sweep_csv_is_byte_identical_to_the_pinned_output(tmp_path):
    # Pins every Monte Carlo byte of a small AF+DF sweep (3 rows, 1000
    # trials, n_r = 100): any change to the draw path that moves a number
    # changes this hash.
    rows = run_sweep(parse_config(config(mode="both", trials=1000, seed=42)))
    out = tmp_path / "pinned.csv"
    emit_report(rows, "csv", out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "525a36076a1548e54f911df20643a50aea0c87b9ad5aeeeb59e4da0006fd0afb"


# ----------------------------------------------------------------- emit_report

def test_csv_header_and_formatting(tmp_path):
    rows = run_sweep(parse_config(config()))
    out = tmp_path / "table.csv"
    written = emit_report(rows, "csv", out)
    data = out.read_bytes()
    assert written == len(data)
    lines = data.decode().splitlines()
    assert lines[0] == (
        "value,af_c_d,af_c_soc_analytic,af_p0_analytic,"
        "df_c_d,df_c_soc_analytic,df_p0_analytic"
    )
    assert len(lines) == 4
    assert lines[2].startswith("1,122099.385,34246.4626,")  # 9 significant digits


def test_emission_is_deterministic(tmp_path):
    rows = run_sweep(parse_config(config(mode="both", trials=200, seed=3)))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_report(rows, "csv", a)
    emit_report(run_sweep(parse_config(config(mode="both", trials=200, seed=3))), "csv", b)
    assert a.read_bytes() == b.read_bytes()


def test_json_report_mirrors_the_csv_columns(tmp_path):
    rows = run_sweep(parse_config(config(schemes=["DF"])))
    out = tmp_path / "table.json"
    emit_report(rows, "json", out)
    payload = json.loads(out.read_text())
    assert len(payload) == 3
    assert list(payload[0]) == ["value", "df_c_d", "df_c_soc_analytic", "df_p0_analytic"]


@pytest.mark.parametrize("mode", ["analytic", "both"])
@pytest.mark.parametrize("schemes", [["AF"], ["DF"], ["AF", "DF"]])
def test_report_columns_follow_the_documented_order(tmp_path, mode, schemes):
    mc = {"trials": 200, "seed": 1} if mode == "both" else {}
    rows = run_sweep(parse_config(config(grid=[1.0], schemes=schemes, mode=mode, **mc)))
    fields = ["c_d", "c_soc_analytic", "p0_analytic"]
    if mode == "both":
        fields += ["c_soc_mc", "c_soc_mc_stderr", "p0_mc", "p0_mc_stderr"]
    want = ["value"] + [f"{s.lower()}_{f}" for s in schemes for f in fields]
    emit_report(rows, "csv", tmp_path / "t.csv")
    emit_report(rows, "json", tmp_path / "t.json")
    assert (tmp_path / "t.csv").read_text().splitlines()[0] == ",".join(want)
    assert list(json.loads((tmp_path / "t.json").read_text())[0]) == want


def test_emit_rejects_empty_rows_and_bad_format(tmp_path):
    rows = run_sweep(parse_config(config()))
    with pytest.raises(ValueError):
        emit_report([], "csv", tmp_path / "x.csv")
    with pytest.raises(ValueError):
        emit_report(rows, "tsv", tmp_path / "x.tsv")


def test_emit_leaves_no_temp_files(tmp_path):
    rows = run_sweep(parse_config(config()))
    emit_report(rows, "csv", tmp_path / "t.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


# --------------------------------------------------------------------- presets

def test_preset_catalog():
    assert PRESETS == ("fig2", "fig3", "fig3b", "fig4", "fig5", "fig6", "fig7")
    with pytest.raises(ConfigError):
        preset_specs("fig9")


def test_fig2_preset_covers_three_outage_levels():
    runs = preset_specs("fig2")
    assert [label for label, _ in runs] == ["eps0.001", "eps0.01", "eps0.1"]
    for _, spec in runs:
        assert spec.schemes == (Scheme.AF,)
        assert spec.mode == "both"
        assert spec.trials == 10_000
        assert spec.grid[0] == pytest.approx(0.1)
        assert spec.grid[-1] == pytest.approx(3.0)


def test_fig2_preset_center_cell_agrees_with_theory():
    _, spec = preset_specs("fig2")[1]  # eps = 0.01
    spec = replace(spec, grid=(1.0,))
    row = run_sweep(spec)[0]
    assert row["af_c_soc_mc"] == pytest.approx(row["af_c_soc_analytic"], rel=0.03)


def test_fig4_preset_crosses_zero(tmp_path):
    (_, spec), = preset_specs("fig4")
    assert spec.variable == "source-power-db"
    rows = run_sweep(replace(spec, mode="analytic", trials=None, seed=None))
    out = tmp_path / "fig4.csv"
    emit_report(rows, "csv", out)
    gaps = [r["af_c_soc_analytic"] - r["df_c_soc_analytic"] for r in rows]
    assert any(a * b < 0 for a, b in zip(gaps, gaps[1:]))


def test_fig5_preset_peaks_strictly_inside_the_grid():
    (_, spec), = preset_specs("fig5")
    assert spec.variable == "relay-power-db"
    rows = run_sweep(replace(spec, mode="analytic", trials=None, seed=None))
    for scheme in ("af", "df"):
        soc = [r[f"{scheme}_c_soc_analytic"] for r in rows]
        peak = soc.index(max(soc))
        assert 0 < peak < len(soc) - 1


# ------------------------------------------------------------------------- CLI

def test_cli_point_reports_both_schemes():
    result = run_cli("point", "--epsilon", "0.01")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["AF"]["c_soc"] == pytest.approx(34246.462614071947, rel=1e-9)
    assert payload["DF"]["c_soc"] == pytest.approx(42856.29538145964, rel=1e-9)


def test_cli_point_without_flags_reports_the_dataclass_defaults(capsys):
    assert main(["point"]) == 0
    expected = {}
    for scheme in (Scheme.AF, Scheme.DF):
        report = scheme_report(scheme, SystemParams())
        expected[scheme.value] = {"c_d": report.c_d, "c_soc": report.c_soc, "p0": report.p0}
    assert json.loads(capsys.readouterr().out) == expected


def test_reference_catalogue_commands_all_pass():
    # A subprocess: the script imports from the tree it checks and stops
    # writing bytecode for the rest of its process.
    script = Path(__file__).resolve().parent.parent / "scripts" / "check_catalogue.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith(" 0 failing\n")


def test_cli_sweep_is_byte_deterministic_across_processes(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(config(mode="both", trials=300, seed=5))
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    r1 = run_cli("sweep", "--config", str(cfg), "--out", str(out1))
    r2 = run_cli("sweep", "--config", str(cfg), "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seed_and_trials_overrides_change_the_output(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(config(grid=[1.0], mode="both", trials=300, seed=5))
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out1)).returncode == 0
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out2),
                   "--seed", "6").returncode == 0
    assert out1.read_bytes() != out2.read_bytes()


@pytest.mark.parametrize("key,value", [("trials", 0), ("trials", 99), ("seed", -1),
                                       ("seed", 2**64),
                                       pytest.param("seed", 10**400, id="seed-10**400")])
def test_cli_overrides_are_checked_as_config_keys(tmp_path, capsys, key, value):
    settings = {"trials": 300, "seed": 5}
    as_key = tmp_path / "as_key.json"
    as_key.write_text(config(mode="both", **dict(settings, **{key: value})))
    as_flag = tmp_path / "as_flag.json"
    as_flag.write_text(config(mode="both", **settings))
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--config", str(as_key), "--out", out]) == 2
    key_error = capsys.readouterr().err
    assert main(["sweep", "--config", str(as_flag), "--out", out, f"--{key}", str(value)]) == 2
    assert capsys.readouterr().err == key_error
    assert key_error.startswith(f"config error: {key}: ")
    assert not (tmp_path / "x.csv").exists()


def test_trials_must_resolve_the_smallest_epsilon_of_an_epsilon_sweep(tmp_path, capsys):
    # The row at epsilon = 0.001 needs 1000 trials; 500 is a config error
    # naming trials, from the config key and from the flag alike.
    sweep_eps = {"variable": "epsilon", "grid": [0.001, 0.01], "mode": "both", "seed": 1}
    as_key = tmp_path / "as_key.json"
    as_key.write_text(config(**sweep_eps, trials=500))
    as_flag = tmp_path / "as_flag.json"
    as_flag.write_text(config(**sweep_eps, trials=1000))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(as_key), "--out", str(out)]) == 2
    key_error = capsys.readouterr().err
    assert main(["sweep", "--config", str(as_flag), "--out", str(out), "--trials", "500"]) == 2
    assert capsys.readouterr().err == key_error
    assert key_error == (
        "config error: trials: 500 trials cannot resolve the epsilon=0.001 quantile; "
        "need trials >= 100 and epsilon*trials >= 1\n"
    )
    assert not out.exists()
    assert main(["sweep", "--config", str(as_flag), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("command,flag", [
    ("point", "--seed"), ("optimize", "--trials"), ("switch", "--seed"),
])
def test_cli_commands_without_monte_carlo_reject_seed_and_trials(tmp_path, command, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config(variable="relay-power-db", grid=[0.0, 10.0]))
    source = () if command == "point" else ("--config", str(cfg))
    value = "5" if flag == "--trials" else "1"
    result = run_cli(command, *source, flag, value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"unrecognized arguments: {flag} {value}" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["optimize", "switch"])
def test_cli_decision_on_a_one_point_grid_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config(variable="relay-power-db", grid=[10.0], p_s_db=10, epsilon=0.05))
    assert main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: grid: needs two points to bracket the search, got 1\n"


@pytest.mark.parametrize("command", ["optimize", "switch"])
@pytest.mark.parametrize("mode", ["montecarlo", "both"])
def test_cli_decision_rejects_a_monte_carlo_mode(tmp_path, capsys, command, mode):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config(variable="relay-power-db", grid=[-10.0, 40.0], p_s_db=10,
                          epsilon=0.05, mode=mode, trials=1000, seed=1))
    assert main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: mode: must be 'analytic'")
    assert repr(mode) in err


def test_cli_optimize_reports_the_interior_optimum(tmp_path):
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({
        "p_s_db": 10, "epsilon": 0.05, "variable": "relay-power-db",
        "grid": {"lo": -20, "hi": 80, "step": 1}, "schemes": ["AF"],
        "mode": "analytic",
    }))
    result = run_cli("optimize", "--config", str(cfg))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["AF"]["p_r_opt_db"] == pytest.approx(2.848, abs=0.01)
    assert payload["AF"]["c_soc_opt"] == pytest.approx(44645.34, rel=1e-4)


def test_cli_switch_reports_crossings(tmp_path):
    cfg = tmp_path / "switch.json"
    cfg.write_text(json.dumps({
        "p_r_db": 10, "epsilon": 0.05, "variable": "source-power-db",
        "grid": {"lo": -10, "hi": 40, "step": 1}, "schemes": ["AF", "DF"],
        "mode": "analytic",
    }))
    result = run_cli("switch", "--config", str(cfg))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert len(payload["crossings_db"]) >= 1


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"bogus": 1}')
    assert run_cli("sweep", "--config", str(bad_cfg),
                   "--out", str(tmp_path / "x.csv")).returncode == 2

    hopeless = tmp_path / "hopeless.json"
    hopeless.write_text(json.dumps({
        "p_s_db": 10, "epsilon": 0.05, "alpha_re": 1e6,
        "variable": "relay-power-db", "grid": {"lo": -20, "hi": 20, "step": 1},
        "schemes": ["DF"], "mode": "analytic",
    }))
    assert run_cli("optimize", "--config", str(hopeless)).returncode == 3

    good = tmp_path / "good.json"
    good.write_text(config())
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run_cli("sweep", "--config", str(good),
                   "--out", str(missing_dir)).returncode == 4
    assert run_cli("sweep", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "x.csv")).returncode == 4


@pytest.mark.parametrize(
    "p_s_db,p_r_db,message",
    # A = p_s*alpha_sr*n_r overflows in the first case, a*p_r in the second.
    [("3070", "10", "AF c_d is not finite (nan)"), ("2000", "3070", "AF c_d is not finite (nan)")],
)
def test_cli_point_with_overflowing_powers_is_a_numeric_error(p_s_db, p_r_db, message):
    result = run_cli("point", "--p-s-db", p_s_db, "--p-r-db", p_r_db)
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and message in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_point_at_2000_db_on_both_powers_is_finite():
    # A, a*p_r and b*p_r are all finite here; only their product overflows.
    result = run_cli("point", "--p-s-db", "2000", "--p-r-db", "2000")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["AF"]["c_soc"] == pytest.approx(34275.53364663664, rel=1e-9)
    assert payload["DF"]["c_soc"] == pytest.approx(42885.98623629939, rel=1e-9)


def test_cli_sweep_with_overflowing_powers_fails_the_row(tmp_path):
    # With Monte Carlo on, the row still reports the closed-form error.
    for mode in ({"mode": "analytic"}, {"mode": "both", "trials": 200, "seed": 42}):
        cfg = tmp_path / "huge.json"
        cfg.write_text(config(p_r_db=2000, variable="source-power-db", grid=[10.0, 3070.0],
                              **mode))
        out = tmp_path / "huge.csv"
        result = run_cli("sweep", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 3
        assert "row 1 (source-power-db=3070.0)" in result.stderr
        assert "AF c_d is not finite" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()


@pytest.mark.parametrize("command,power_key,variable", [
    ("switch", "p_r_db", "source-power-db"),
    ("optimize", "p_s_db", "relay-power-db"),
])
def test_cli_decision_with_overflowing_powers_is_a_numeric_error(
    tmp_path, command, power_key, variable
):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({
        power_key: 3070, "epsilon": 0.05, "variable": variable,
        "grid": {"lo": 1990, "hi": 2010, "step": 1}, "schemes": ["AF", "DF"],
        "mode": "analytic",
    }))
    result = run_cli(command, "--config", str(cfg))
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: AF c_soc is not finite (nan) at 1990 dB")
    assert "Traceback" not in result.stderr


def test_cli_optimize_with_an_overflowing_high_end_is_a_numeric_error(tmp_path, capsys):
    # At p_s 2000 dB the AF capacity peaks at P* = 997.8 dB, where it is
    # finite, and is not finite once a*p_r overflows, from 3063.0 dB on.
    cfg = tmp_path / "huge.json"
    cfg.write_text(config(variable="relay-power-db", grid=[0.0, 3075.0], p_s_db=2000,
                          epsilon=0.05))
    assert main(["optimize", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: AF c_soc is not finite (nan) at 3075 dB\n"


OVERFLOW_DB = "dB value 4000.0 overflows a linear power"  # 10**400 is beyond a float


def test_cli_point_with_a_db_power_beyond_the_float_range_names_the_value(capsys):
    assert main(["point", "--p-s-db", "4000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {OVERFLOW_DB}\n"


def test_cli_config_db_key_beyond_the_float_range_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(config(p_r_db=4000))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: p_r_db: {OVERFLOW_DB}\n"


def test_cli_sweep_grid_db_value_beyond_the_float_range_fails_the_row(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(config(variable="relay-power-db", grid=[10.0, 4000.0]))
    out_path = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: row 1 (relay-power-db=4000.0): {OVERFLOW_DB}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["optimize", "switch"])
def test_cli_bracket_end_beyond_the_float_range_names_the_value(tmp_path, capsys, command):
    cfg = tmp_path / "huge.json"
    cfg.write_text(config(variable="relay-power-db", grid=[0.0, 4000.0], epsilon=0.05))
    assert main([command, "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {OVERFLOW_DB}\n"


@pytest.mark.parametrize("command", ["sweep", "optimize", "switch"])
def test_cli_config_nested_too_deep_is_a_config_error(tmp_path, capsys, command):
    # json.loads raises RecursionError, not a ValueError, on this document.
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    out_flag = ("--out", str(tmp_path / "out.csv")) if command == "sweep" else ()
    assert main([command, "--config", str(cfg), *out_flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: <document>: invalid JSON: maximum recursion depth")


def test_cli_preset_expands_to_labeled_files(tmp_path):
    result = run_cli("sweep", "--preset", "fig3b", "--out", str(tmp_path / "fig3b.csv"),
                     "--trials", "200")
    assert result.returncode == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["fig3b-nr100.csv", "fig3b-nr200.csv"]


@pytest.mark.parametrize("preset", [None, "fig2"])
def test_cli_sweep_out_naming_a_directory_is_an_io_error(tmp_path, preset):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config())
    source = ("--config", str(cfg)) if preset is None else ("--preset", preset)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    # Run from inside the directory, as `--out .`; keep the package importable there.
    path = (str(Path(secrelay.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-m", "secrelay", "sweep", *source, "--out", "."],
                            cwd=out_dir, env=env, capture_output=True, text=True)
    assert result.returncode == 4
    assert result.stderr.startswith("i/o error: ") and "is a directory" in result.stderr
    assert "Traceback" not in result.stderr
    assert sorted(tmp_path.rglob("*")) == [cfg, out_dir]


def test_cli_point_with_an_n_r_beyond_the_float_range_names_n_r(capsys):
    assert main(["point", "--n-r", "1" + "0" * 400]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: n_r must be an integer >= 1 that a float can hold\n"


def test_cli_point_at_huge_relay_power_reports_the_exact_af_interception():
    # The AF interception probability does not depend on the powers.
    result = run_cli("point", "--p-s-db", "10", "--p-r-db", "200")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["AF"]["p0"] == math.exp(-90.0)


def test_cli_main_reuses_its_parser_without_carrying_state(tmp_path, capsys, monkeypatch):
    # One process runs an interleaved sequence through main(); each result
    # must equal that of the same command in a fresh process.
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal width
    mc = tmp_path / "mc.json"
    mc.write_text(config(grid=[1.0], mode="both", trials=200, seed=5))
    optimize_cfg = tmp_path / "optimize.json"
    optimize_cfg.write_text(config(variable="relay-power-db", grid=[-20.0, 80.0],
                                   p_s_db=10, epsilon=0.05))
    switch_cfg = tmp_path / "switch.json"
    switch_cfg.write_text(config(variable="source-power-db", grid=[-10.0, 40.0],
                                 p_r_db=10, epsilon=0.05))
    bad = tmp_path / "bad.json"
    bad.write_text(config(bogus=1))
    flagged, unflagged = tmp_path / "flagged.csv", tmp_path / "unflagged.csv"
    sequence = [
        ("point", "--p-s-db=-5", "--p-r-db", "35", "--rho", "0.5", "--n-r", "16"),
        ("point",),
        ("sweep", "--config", str(mc), "--out", str(flagged), "--seed", "7", "--trials", "300"),
        ("sweep", "--config", str(mc), "--out", str(unflagged)),
        ("optimize", "--config", str(optimize_cfg)),
        ("switch", "--config", str(switch_cfg)),
        ("sweep", "--config", str(mc), "--out", str(flagged), "--format", "tsv"),
        ("sweep", "--config", str(bad), "--out", str(unflagged)),
    ]
    in_process = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # how argparse rejects a command line
            code = exc.code
        in_process.append((code, *capsys.readouterr()))
    reports = [path.read_bytes() for path in (flagged, unflagged)]

    path = (str(Path(secrelay.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for argv, got in zip(sequence, in_process):
        fresh = subprocess.run([sys.executable, "-m", "secrelay", *argv], env=env,
                               capture_output=True, text=True)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert reports == [path.read_bytes() for path in (flagged, unflagged)]

    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 0, 0, 2, 2]
    assert in_process[0][1] != in_process[1][1]
    assert in_process[6][2].startswith("usage: secrelay sweep")
    assert in_process[7][2] == "config error: bogus: unknown key\n"
    # The flag-free sweep runs the config's own seed and trials, not the last flags.
    assert reports[0] != reports[1]
    spec = parse_config(mc.read_text())
    emit_report(run_sweep(spec), "csv", tmp_path / "own.csv")
    assert reports[1] == (tmp_path / "own.csv").read_bytes()
