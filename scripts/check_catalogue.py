"""Run every catalogue command of the benchmark's reference file and check its output.

    python3 scripts/check_catalogue.py [--root TREE]

Each ``point``, ``optimize``, ``switch`` and ``sweep`` entry of the
``catalogue`` section of ``TREE/perfbench/reference.json`` becomes the command
line the ``analytic-cli`` workload would run for it.  The command runs in
process through ``secrelay.cli.main`` imported from ``TREE/src``, and
``TREE/perfbench/oracle.py`` checks its output.  The script prints the errors
of each failing command, then ``N commands, K failing``, and exits 1 when K is
not 0.  ``--root`` defaults to this repository; give it a ``git archive``
export to check another commit.
"""
import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def catalogue_argv(kind: str, index: int, entry: dict, workdir: Path) -> tuple:
    """(argv, report path) of one catalogue entry; the path is empty but for sweeps."""
    if kind == "point":
        return ("point", *entry["argv"]), ""
    config = workdir / f"{kind}-{index}.json"
    config.write_text(json.dumps(entry["config"]))
    argv = (kind, "--config", str(config))
    if kind != "sweep":
        return argv, ""
    out = str(workdir / f"{kind}-{index}.csv")
    return (*argv, "--out", out), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="tree whose src/ and perfbench/ are used (default: this repository)")
    root = parser.parse_args(argv).root.resolve()
    sys.dont_write_bytecode = True  # leave the checked tree as it is
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import oracle
    import runner
    import workloads
    from secrelay.cli import main as cli_main

    catalogue = oracle.load_reference(root / "perfbench" / "reference.json")["catalogue"]
    total = failing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for kind, entries in catalogue.items():
            for index, entry in enumerate(entries):
                command_argv, out = catalogue_argv(kind, index, entry, Path(tmp))
                command = workloads.Command(argv=command_argv, kind=kind, ref=f"{kind}/{index}",
                                            out=out)
                code, stdout, stderr, _ = runner.run_command(cli_main, command_argv)
                errors = oracle.check_command(command, code, stdout, catalogue)
                total += 1
                if errors:
                    failing += 1
                    print("\n".join(errors + ([stderr.rstrip()] if code else [])))
    print(f"{total} commands, {failing} failing")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
