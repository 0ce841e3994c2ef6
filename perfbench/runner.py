"""Child process of one benchmark pass.

Runs a list of ``secrelay`` CLI commands in-process through
``secrelay.cli.main(argv)``, one after another (a closed loop with one
client), with stdout and stderr captured, and records each command's exit
code, output and latency:

    python3 perfbench/runner.py COMMANDS.json RESULT.json [SPANS.json]

With a third argument the pass is traced: wrappers from ``tracer.py`` are
installed before the first command and the spans are written there at the
end.  Without it, no wrapper is installed and ``tracer`` is never imported.
"""
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def run_command(main, argv) -> tuple:
    """(exit code, stdout, stderr, latency in s) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed command, not the end of the pass
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def versions() -> dict:
    def version(name):
        module = sys.modules.get(name)
        return getattr(module, "__version__", None)
    return {"python": sys.version.split()[0], "numpy": version("numpy"), "scipy": version("scipy")}


def main(argv) -> int:
    commands_path, result_path = Path(argv[1]), Path(argv[2])
    spans_path = Path(argv[3]) if len(argv) > 3 else None
    commands = json.loads(commands_path.read_text())

    import secrelay
    import secrelay.cli

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(secrelay.__file__).resolve().parents:
        print(f"secrelay was imported from {secrelay.__file__}, not from {src}", file=sys.stderr)
        return 2

    recorder = None
    if spans_path is not None:
        import tracer
        recorder = tracer.Recorder()
        recorder.install()

    results = []
    for op, argv_i in enumerate(commands):
        if recorder is not None:
            recorder.op = op
        # Looked up on every call so that a traced pass goes through the wrapper.
        results.append(run_command(secrelay.cli.main, argv_i))

    result_path.write_text(json.dumps({"env": versions(), "commands": results}))
    if recorder is not None:
        recorder.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
