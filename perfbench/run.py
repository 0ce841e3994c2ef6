"""Runs one benchmark workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload fig5-both --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  Set-up
times fresh interpreters importing ``secrelay.cli`` (setup_s).  The run then
repeats passes, one child process at a time, until ``--seconds`` have passed,
and checks every output against ``reference.json``.

With ``--trace 0`` no wrapper is installed and the end-to-end metrics named in
BENCHMARK.json are reported.  With ``--trace 1`` untraced and traced passes
alternate; the traced ones give the per-layer metrics, and the two together
give the tracing overhead.  Every metric is printed by name with its unit; the
last stdout line is one JSON object for the driver.  The full result, with
the environment it ran in, is also written to ``.perfbench_work/results/``.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_IMPORTS = 3        # cold imports per run; setup_s is their median
RUN_DEADLINE_S = 150.0   # no pass starts that would end after this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Printed alongside the BENCHMARK.json metrics; the driver reads them from
# the result's "attempted"/"failed" counts instead.
EXTRA_UNITS = {"ops_failed_frac": "ratio", "cmd_samples": "count"}


@dataclass
class Pass:
    traced: bool
    wall_s: float
    rss_mb: float
    attempted: int
    failed: int
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    c_soc_cells: list = field(default_factory=list)  # (c_soc_mc, stderr) with c_soc_mc > 0
    se_log_ratios: list = field(default_factory=list)  # c_soc stderr / expected, per cell
    layers: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)


def child_env() -> dict:
    """Environment of every child: default single-thread path, package from src/."""
    env = {k: v for k, v in os.environ.items() if k != "SECRELAY_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, env, timeout_s: float, stderr_path: Path) -> tuple:
    """(exit code, wall s, peak RSS MB) of one child, killed after ``timeout_s``.

    Linux folds the spawning process's peak RSS at exec time into the child's
    ru_maxrss, so this process must stay smaller than the children it measures.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def scipy_import_s(importtime_log: str) -> float:
    """Self time of every scipy module in a ``-X importtime`` log, in s."""
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if self_us.isdigit() and (name == "scipy" or name.startswith("scipy.")):
            total_us += int(self_us)
    return total_us / 1e6


def measure_setup(env, work: Path, trace: bool) -> dict:
    imp = [sys.executable, "-c", "import secrelay.cli"]
    log = work / "setup.err"
    code, _, _ = spawn(imp, env, 60, log)  # first import may compile bytecode
    if code != 0:
        raise RuntimeError(f"cannot import secrelay.cli from src/: {log.read_text()[-2000:]}")
    times = [spawn(imp, env, 60, log)[1] for _ in range(SETUP_IMPORTS)]
    setup = {"setup_s": statistics.median(times), "setup_samples_s": times}
    if trace:
        spawn([sys.executable, "-X", "importtime", *imp[1:]], env, 60, log)
        setup["cli.import.scipy_s"] = scipy_import_s(log.read_text())
    return setup


def run_pass(gen, env, work: Path, traced: bool, timeout_s: float, reference: dict) -> Pass:
    index = gen.passes
    commands = gen.next_pass()
    cmd_path, res_path = work / f"pass{index}.cmds.json", work / f"pass{index}.result.json"
    spans_path = work / f"pass{index}.spans.json"
    cmd_path.write_text(json.dumps([c.argv for c in commands]))
    args = [sys.executable, str(HERE / "runner.py"), str(cmd_path), str(res_path)]
    if traced:
        args.append(str(spans_path))
    code, wall, rss = spawn(args, env, timeout_s, work / f"pass{index}.err")

    mc = gen.workload in workloads.MC_BASE
    expected_rows = oracle.mc_expected_rows(reference, gen.workload, gen.size.grid) if mc else {}
    p = Pass(traced=traced, wall_s=wall, rss_mb=rss,
             attempted=len(expected_rows) if mc else len(commands), failed=0)
    if code != 0 or not res_path.exists():
        p.failed = p.attempted
        p.errors.append(f"pass {index}: runner exit {code}: "
                        f"{(work / f'pass{index}.err').read_text()[-2000:]}")
        return p
    result = json.loads(res_path.read_text())
    p.versions = result["env"]
    outcomes = result["commands"]
    p.latencies = [latency for _, _, _, latency in outcomes]
    if mc:
        _check_mc_pass(p, commands[0], outcomes[0], expected_rows, reference, gen)
    else:
        for command, (code, stdout, _, _) in zip(commands, outcomes):
            errors = oracle.check_command(command, code, stdout, reference["catalogue"])
            p.failed += bool(errors)
            p.errors += errors
    if traced:
        # Summarized in a child of its own: loading the spans here would raise
        # this process's peak RSS, which the next child inherits in ru_maxrss.
        summary = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spans_path)],
                                 capture_output=True, text=True, check=True, timeout=timeout_s)
        p.layers = json.loads(summary.stdout)
    for path in work.glob(f"pass{index}[.-]*"):
        path.unlink()
    return p


def _check_mc_pass(p: Pass, command, outcome, expected_rows, reference, gen):
    code, _, stderr, _ = outcome
    if code != 0:
        p.failed = p.attempted
        p.errors.append(f"{' '.join(command.argv)}: exit {code}: {stderr[-2000:]}")
        return
    ref_trials = reference["mc"][gen.workload]["ref_trials"]
    _, p.failed, p.errors = oracle.check_mc_report(
        command.out, expected_rows, gen.size.trials, ref_trials, p.se_log_ratios)
    try:
        header, rows = oracle.read_report(command.out)
    except (OSError, ValueError):
        return  # already counted as failed rows by check_mc_report
    for row in rows:
        named = dict(zip(header, row))
        for name, c_soc in named.items():
            if name.endswith("_c_soc_mc") and c_soc > 0.0:
                p.c_soc_cells.append((c_soc, named[name + "_stderr"]))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes, setup: dict, gen, reference: dict) -> dict:
    plain = [p for p in passes if not p.traced]
    wall = statistics.median(p.wall_s for p in plain)
    latencies = [t for p in plain for t in p.latencies]
    attempted = sum(p.attempted for p in passes)
    metrics = {
        "setup_s": setup["setup_s"],
        "wall_s": wall,
        "cmd_p50_ms": 1e3 * percentile(latencies, 0.50),
        "cmd_p99_ms": 1e3 * percentile(latencies, 0.99),
        "cmd_samples": len(latencies),
        "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        "ops_failed_frac": sum(p.failed for p in passes) / attempted,
        "mc_trials_per_s": 0.0,
        "mc_time_to_1pct_s": 0.0,
    }
    if gen.workload in workloads.MC_BASE:
        cells = len(oracle.mc_expected_rows(reference, gen.workload, gen.size.grid))
        schemes = len(workloads.MC_BASE[gen.workload]["schemes"])
        metrics["mc_trials_per_s"] = cells * schemes * gen.size.trials / wall
        # Time to reach a 1% relative standard error, from the cost and the
        # standard errors this run measured: faster but noisier does not win.
        # The cost is the sweep command's own latency, i.e. wall_s less the
        # interpreter start and import, measured in-process.
        ratios = [(se / (0.01 * c)) ** 2 for p in plain for c, se in p.c_soc_cells]
        if ratios:
            metrics["mc_time_to_1pct_s"] = metrics["cmd_p50_ms"] / 1e3 * statistics.median(ratios)
    return metrics


def per_layer(passes, setup: dict, e2e: dict) -> dict:
    traced = [p for p in passes if p.traced and p.layers]
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics = {name: e2e[name] for name in ("mc_trials_per_s", "mc_time_to_1pct_s")}
    metrics.update((name, statistics.median(p.layers[name] for p in traced)) for name in traced[0].layers)
    metrics["cli.import.scipy_s"] = setup["cli.import.scipy_s"]
    metrics["trace.overhead_frac"] = traced_wall / e2e["wall_s"] - 1.0
    return metrics


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(versions: dict) -> dict:
    return {
        "git_sha": git_sha(),  # None outside a git checkout; src_sha256 still names the code
        "src_sha256": src_sha256(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {var: "1" for var in THREAD_VARS},
        "SECRELAY_THREADS": "unset",
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny=False) -> dict:
    """Runs one workload and returns its full result."""
    started = time.monotonic()
    reference = oracle.load_reference(HERE / "reference.json")
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = child_env()
        setup = measure_setup(env, work, trace)
        gen = workloads.Generator(workload, seed, work, reference["catalogue"], tiny=tiny)
        passes = []
        t0 = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            remaining = RUN_DEADLINE_S - (time.monotonic() - started)
            passes.append(run_pass(gen, env, work, traced, max(remaining, 1.0), reference))
            plain = [p for p in passes if not p.traced]
            done = (time.monotonic() - t0 >= seconds
                    and sum(len(p.latencies) for p in plain) >= gen.size.min_commands
                    and (not trace or len(plain) < len(passes)))
            next_end = time.monotonic() - started + passes[-1].wall_s
            if done or next_end > RUN_DEADLINE_S or passes[-1].failed == passes[-1].attempted:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if gen.workload in workloads.MC_BASE:
        # A stderr column biased as a whole makes every row of the run wrong.
        errors = oracle.pooled_stderr_errors(
            [r for p in passes for r in p.se_log_ratios], gen.size.trials,
            workloads.MC_BASE[gen.workload]["epsilon"])
        if errors:
            for p in passes:
                p.failed = p.attempted
            passes[0].errors += errors

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(passes[0].versions),
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "rss_mb": p.rss_mb,
                    "attempted": p.attempted, "failed": p.failed} for p in passes],
        "setup_samples_s": setup["setup_samples_s"],
        "attempted": attempted, "failed": failed,
        "errors": [e for p in passes for e in p.errors][:50],
    }
    # Metrics need at least one pass (of each kind, when traced) whose runner completed.
    if any(p.latencies for p in passes if not p.traced):
        result["end_to_end"] = end_to_end(passes, setup, gen, reference)
        if any(p.layers for p in passes if p.traced):
            result["per_layer"] = per_layer(passes, setup, result["end_to_end"])
    return result


def report(result: dict, bench: dict) -> dict:
    """Prints every metric by name and unit; returns the driver's JSON object."""
    print(f"# perfbench {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    walls = ", ".join(f"{p['wall_s']:.3f}{'T' if p['traced'] else ''}" for p in result["passes"])
    print(f"# passes (wall s, T = traced): {walls}")
    for error in result["errors"][:10]:
        print(f"# FAILED {error}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(EXTRA_UNITS)
    key = "per_layer" if result["trace"] else "end_to_end"
    values = result.get(key, {})
    shown = dict(result.get("end_to_end", {}), **values)
    for name, value in shown.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    wanted = [m["name"] for m in bench[key]]
    return {
        "correct": result["failed"] == 0 and all(name in values for name in wanted),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in wanted if name in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="secrelay benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "secrelay" / "cli.py").is_file():
        print(f"perfbench: no secrelay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        line = report(result, bench)
        out = ROOT / ".perfbench_work" / "results"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n")
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
