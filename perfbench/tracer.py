"""Span recorder for traced benchmark passes, and the per-layer summary.

``Recorder.install`` wraps public functions of the ``secrelay`` modules from
outside, at the module attribute where their callers look them up, so no
program file changes.  Each call records one span
``(id, parent id, op id, name, start ns, end ns)``; the op id is the index of
the CLI command that caused it.  Spans stay in memory and are written out once,
when the pass ends.

The recorder keeps one call stack, so it assumes the program runs
single-threaded, which the benchmark ensures by leaving SECRELAY_THREADS unset.
"""
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name).  The span name is the layer that defines
# the function, which is not always the module that looks it up.
WRAPPED = (
    ("secrelay.cli", "main", "cli.main"),
    ("secrelay.cli", "scheme_report", "analytic.scheme_report"),
    ("secrelay.cli", "validate", "params.validate"),
    ("secrelay.sweep", "parse_config", "sweep.parse_config"),
    ("secrelay.sweep", "run_sweep", "sweep.run_sweep"),
    ("secrelay.sweep", "emit_report", "sweep.emit_report"),
    ("secrelay.sweep", "scheme_report", "analytic.scheme_report"),
    ("secrelay.sweep", "validate", "params.validate"),
    ("secrelay.decision", "optimal_relay_power", "decision.optimal_relay_power"),
    ("secrelay.decision", "find_switching_point", "decision.find_switching_point"),
    ("secrelay.decision", "secrecy_outage_capacity_af", "analytic.secrecy_outage_capacity_af"),
    ("secrelay.decision", "secrecy_outage_capacity_df", "analytic.secrecy_outage_capacity_df"),
    ("secrelay.montecarlo", "estimate", "montecarlo.estimate"),
    ("secrelay.montecarlo", "empirical_quantile", "montecarlo.empirical_quantile"),
    ("secrelay.montecarlo", "trial_rng", "channel.trial_rng"),
    ("secrelay.montecarlo", "draw_channels", "channel.draw_channels"),
    ("secrelay.montecarlo", "link_statistics", "channel.link_statistics"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_trial_rng(rec, args, kwargs, rng):
    rec.rng_keys[id(rng)] = (_arg(args, kwargs, 0, "seed"), _arg(args, kwargs, 1, "trial"))


def _count_draw(rec, args, kwargs, draw):
    params, rng = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "rng")
    n_r = int(params.n_r)
    rec.counters["draws"] += 1
    rec.counters["normals"] += 8 * n_r  # 4 complex vectors of length n_r
    trial = rec.rng_keys.pop(id(rng), None)
    if trial is not None:
        key = (*trial, n_r, params.rho)
        if key in rec.drawn:
            rec.counters["redraws"] += 1
        rec.drawn.add(key)


def _count_bytes(rec, args, kwargs, written):
    rec.counters["emit_bytes"] += written


# Counts taken at a boundary, inside its span, after the wrapped call returns.
HOOKS = {
    "channel.trial_rng": _count_trial_rng,
    "channel.draw_channels": _count_draw,
    "sweep.emit_report": _count_bytes,
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = [-1]  # ids of the open spans; -1 is the root
        self.op = -1
        self.next_id = 0
        self.counters = Counter()
        self.rng_keys = {}  # id(generator) -> (seed, trial) until it is drawn from
        self.drawn = set()  # (seed, trial, n_r, rho) of every draw so far

    def install(self):
        """Wraps every name in WRAPPED; one the program no longer has reads 0."""
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(span_name, fn, HOOKS.get(span_name)))

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, t0, t1))

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        doc = {"spans": self.spans, "counters": self.counters}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _covered(intervals, t0, t1) -> int:
    """Length of [t0, t1] covered by the union of ``intervals``."""
    total, reach = 0, t0
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, t1)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(doc) -> dict:
    """Per-layer metrics of one traced pass.

    A span's self time is its duration minus the part of it that its child
    spans cover.  ``evals`` is the number of closed-form objective
    evaluations per call of the decision function.
    """
    spans = doc["spans"]
    counters = Counter(doc["counters"])
    names = {sid: name for sid, _, _, name, _, _ in spans}
    children = defaultdict(list)
    for sid, parent, _, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    self_ns, calls, evals = Counter(), Counter(), Counter()
    for sid, parent, _, name, t0, t1 in spans:
        self_ns[name] += t1 - t0 - _covered(children.get(sid, ()), t0, t1)
        calls[name] += 1
        # One evaluation of the AF-DF gap calls the AF capacity once; the
        # relay-power search calls the capacity of one scheme per evaluation.
        if name.startswith("analytic.secrecy_outage_capacity_"):
            caller = names.get(parent, "")
            if caller == "decision.optimal_relay_power" or name.endswith("_af"):
                evals[caller] += 1

    def self_s(name):
        return self_ns[name] / 1e9

    def per_call(name):
        return evals[name] / calls[name] if calls[name] else 0.0

    draws = counters["draws"]
    return {
        "channel.trial_rng.calls": calls["channel.trial_rng"],
        "channel.trial_rng.self_s": self_s("channel.trial_rng"),
        "channel.draw_channels.calls": calls["channel.draw_channels"],
        "channel.draw_channels.self_s": self_s("channel.draw_channels"),
        "channel.link_statistics.calls": calls["channel.link_statistics"],
        "channel.link_statistics.self_s": self_s("channel.link_statistics"),
        "channel.normals_drawn": counters["normals"],
        "channel.redraw_frac": counters["redraws"] / draws if draws else 0.0,
        "montecarlo.estimate.calls": calls["montecarlo.estimate"],
        "montecarlo.estimate.self_s": self_s("montecarlo.estimate"),
        "montecarlo.empirical_quantile.self_s": self_s("montecarlo.empirical_quantile"),
        "cli.main.self_s": self_s("cli.main"),
        "decision.optimal_relay_power.evals": per_call("decision.optimal_relay_power"),
        "decision.optimal_relay_power.self_s": self_s("decision.optimal_relay_power"),
        "decision.find_switching_point.evals": per_call("decision.find_switching_point"),
        "decision.find_switching_point.self_s": self_s("decision.find_switching_point"),
        "analytic.scheme_report.calls": calls["analytic.scheme_report"],
        "analytic.scheme_report.self_s": self_s("analytic.scheme_report"),
        "params.validate.calls": calls["params.validate"],
        "sweep.parse_config.self_s": self_s("sweep.parse_config"),
        "sweep.run_sweep.self_s": self_s("sweep.run_sweep"),
        "sweep.emit_report.self_s": self_s("sweep.emit_report"),
        "sweep.emit_report.bytes": counters["emit_bytes"],
    }


if __name__ == "__main__":
    # python3 perfbench/tracer.py SPANS.json  ->  per-layer metrics as JSON
    print(json.dumps(summarize(json.loads(Path(sys.argv[1]).read_text()))))
