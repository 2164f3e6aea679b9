"""In-memory span tracing around calls into middleman's public functions.

Wrappers are installed from outside the package: every module attribute of
``middleman`` (and its submodules) that names a traced function is replaced
by one shared wrapper, so ``middleman.ambiguity.middleman_payoff`` and
``middleman.hedonic.middleman_payoff`` both record into the same span.
Methods (``BenefitSpec.__call__``, ``StrategyProfile.__post_init__``, ...)
are wrapped on their class. A target that does not exist is reported as
absent with the reason; installation never fails because of it.

Aggregates are kept per ``(span, parent span)``: calls, total time and the
time covered by child spans, so self time is total minus child time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from math import prod

import numpy as np

# (span name, module, attribute path, extra measure)
#   measure: None, "elements" (size of the result), "len" (len of the result),
#   "kernel" (elements, bytes computed from the argument arrays, found)
TARGETS = (
    ("hedonic.user_payoff", "middleman.hedonic", "user_payoff", "elements"),
    ("hedonic.middleman_payoff", "middleman.hedonic", "middleman_payoff", "elements"),
    ("hedonic.benefit", "middleman.hedonic", "BenefitSpec.__call__", None),
    ("hedonic.income", "middleman.hedonic", "IncomeSpec.__call__", None),
    ("game.StrategyProfile", "middleman.game", "StrategyProfile.__post_init__", None),
    ("oracles.epsilon_nash_check", "middleman.oracles", "epsilon_nash_check", None),
    ("oracles.weak_dominance_check", "middleman.oracles", "weak_dominance_check", None),
    ("oracles.pareto_check", "middleman.oracles", "pareto_check", None),
    ("ambiguity.ambiguity_equilibrium_check", "middleman.ambiguity",
     "ambiguity_equilibrium_check", None),
    ("ambiguity.modified_payoff", "middleman.ambiguity", "modified_payoff", "elements"),
    ("ambiguity.optimistic_payoff", "middleman.ambiguity", "optimistic_payoff", None),
    ("ambiguity.pessimistic_payoff", "middleman.ambiguity", "pessimistic_payoff", None),
    ("ambiguity.best_fee_response", "middleman.ambiguity", "best_fee_response", None),
    ("ambiguity.full_exploitation_verdict", "middleman.ambiguity",
     "full_exploitation_verdict", None),
    ("ambiguity.BeliefSystem", "middleman.ambiguity", "BeliefSystem.__post_init__", None),
    ("activity.region_sample", "middleman.activity", "region_sample", "len"),
    ("scenario.parse_scenario", "middleman.scenario", "parse_scenario", None),
    ("scenario.emit_results", "middleman.scenario", "emit_results", "len"),
    ("scenario.region_csv", "middleman.scenario", "region_csv", "len"),
    ("scenario.region_svg", "middleman.scenario", "region_svg", "len"),
    ("scenario.sweep_csv", "middleman.scenario", "sweep_csv", "len"),
    ("scenario.sweep_machine", "middleman.scenario", "sweep_machine", "len"),
    ("cli.main", "middleman.cli", "main", None),
    # `_scan` is reported as `scan`: metric names must start with a letter.
    ("scan.any_improvement", "middleman._scan", "any_improvement", "kernel"),
    ("scan.any_dominance_gap", "middleman._scan", "any_dominance_gap", "kernel"),
    ("scan.any_strict_dominator", "middleman._scan", "any_strict_dominator", "kernel"),
)

EMIT_SPANS = frozenset(
    name for name, *_ in TARGETS
    if name.startswith("scenario.") and name != "scenario.parse_scenario"
)
KERNEL_SPANS = tuple(name for name, *_ in TARGETS if name.startswith("scan."))
# oracle span -> slices the scan can visit, from its grid argument
CHECK_SLICES = {
    "oracles.epsilon_nash_check": lambda args, kwargs: 3,
    "oracles.weak_dominance_check": lambda args, kwargs: _grid(args, kwargs, 3).steps + 1,
    "oracles.pareto_check": lambda args, kwargs: _grid(args, kwargs, 2).steps + 1,
}


def _grid(args, kwargs, pos):
    return kwargs["grid"] if "grid" in kwargs else args[pos]


def _kernel_sizes(args):
    arrays = [np.asarray(a) for a in args if isinstance(a, np.ndarray)]
    shape = np.broadcast_shapes(*(a.shape for a in arrays)) if arrays else ()
    # computed from array sizes, not measured: cache behaviour is ignored
    return prod(shape), sum(a.nbytes for a in arrays)


class Tracer:
    """Span aggregates for one process."""

    def __init__(self):
        self.stack = []  # frames: [span, child seconds, kernel calls at entry]
        self.agg = {}  # (span, parent) -> [calls, total s, child s]
        self.extra = {}  # span -> {counter: value}
        self.kernel_calls = 0
        self.check_slices = []  # (span, scanned, total) per oracle call
        self.absent = {}  # span -> reason

    def _add(self, span, key, value):
        counters = self.extra.setdefault(span, {})
        counters[key] = counters.get(key, 0) + value

    def wrap(self, span, fn, measure):
        stack = self.stack
        agg = self.agg
        slices = CHECK_SLICES.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0, self.kernel_calls]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = agg.get((span, parent))
                if rec is None:
                    rec = agg[(span, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
            if measure == "elements":
                self._add(span, "elements", int(np.size(out)))
            elif measure == "len":
                if span == "activity.region_sample":
                    self._add(span, "elements", len(out))
                elif parent not in EMIT_SPANS:  # the outermost emitter counts the text
                    self._add(span, "bytes", len(out))
            elif measure == "kernel":
                self.kernel_calls += 1
                elements, nbytes = _kernel_sizes(args)
                self._add(span, "elements", elements)
                self._add(span, "bytes_computed", nbytes)
                self._add(span, "found", int(bool(out)))
            if slices is not None:
                self.check_slices.append(
                    (span, self.kernel_calls - frame[2], slices(args, kwargs))
                )
            return out

        return traced

    def install(self):
        """Wrap every traced target that exists; record the missing ones."""
        for span, module_name, attr_path, measure in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self.absent[span] = f"module {module_name} not importable ({exc})"
                continue
            owner = module
            *owner_path, attr = attr_path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if owner_path else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.absent[span] = f"{module_name}.{attr_path} does not exist"
                continue
            wrapper = self.wrap(span, original, measure)
            if owner_path:
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "middleman" or name.startswith("middleman.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self):
        """Aggregates as plain JSON-ready data."""
        return {
            "agg": [[s, p, *rec] for (s, p), rec in self.agg.items()],
            "extra": self.extra,
            "check_slices": self.check_slices,
            "absent": self.absent,
        }

    def merge(self, data):
        """Fold in the aggregates another process dumped."""
        for s, p, calls, total, child in data["agg"]:
            rec = self.agg.setdefault((s, p), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += child
        for span, counters in data["extra"].items():
            for key, value in counters.items():
                self._add(span, key, value)
        self.check_slices.extend(tuple(c) for c in data["check_slices"])
        self.absent.update(data["absent"])


# Per-layer metrics: (span, statistics) reported as `<span>.<statistic>`.
SPAN_STATS = (
    ("scenario.parse_scenario", ("calls", "s")),
    ("cli.main", ("calls", "self_s")),
    ("activity.region_sample", ("calls", "s", "elements")),
    ("ambiguity.full_exploitation_verdict", ("calls", "s")),
    ("ambiguity.BeliefSystem", ("calls",)),
    ("ambiguity.modified_payoff", ("calls", "s", "elements")),
    ("ambiguity.optimistic_payoff", ("calls", "s")),
    ("ambiguity.pessimistic_payoff", ("calls", "s")),
    ("ambiguity.best_fee_response", ("calls", "s")),
    ("ambiguity.ambiguity_equilibrium_check", ("calls", "self_s")),
    ("oracles.epsilon_nash_check", ("calls", "self_s")),
    ("oracles.weak_dominance_check", ("calls", "self_s")),
    ("oracles.pareto_check", ("calls", "self_s")),
    ("hedonic.user_payoff", ("calls", "s", "self_s", "elements")),
    ("hedonic.middleman_payoff", ("calls", "s", "self_s", "elements")),
    ("hedonic.benefit", ("calls", "s")),
    ("hedonic.income", ("calls", "s")),
    *((k, ("calls", "s", "elements", "bytes_computed", "found")) for k in KERNEL_SPANS),
    ("game.StrategyProfile", ("calls", "s")),
)
UNITS = {"calls": "count", "s": "s", "self_s": "s", "elements": "count",
         "bytes_computed": "B", "found": "count", "bytes": "B"}
PARETO_SPLIT = (("hedonic", "hedonic."), ("scan", "scan."), ("game", "game."))


def layer_metrics(tracer, imports, untraced_s, traced_s):
    """Per-layer metrics as name -> (value, unit, reason the target is absent or None)."""
    totals = {}
    for (span, _), (calls, total, child) in tracer.agg.items():
        rec = totals.setdefault(span, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += total
        rec[2] += child
    out = {}

    def put(name, value, unit, needs=()):
        reasons = [f"{s}: {tracer.absent[s]}" for s in needs if s in tracer.absent]
        out[name] = (0 if reasons else value, unit, "; ".join(reasons) or None)

    for module in ("middleman", "numpy", "yaml"):
        seconds = imports.get(module)
        out[f"import.{module}_s"] = (
            seconds or 0, "s", None if seconds is not None else "not in -X importtime output"
        )
    for span, stats in SPAN_STATS:
        calls, total, child = totals.get(span, (0, 0.0, 0.0))
        for stat in stats:
            value = {"calls": calls, "s": total, "self_s": total - child}.get(stat)
            if value is None:
                value = tracer.extra.get(span, {}).get(stat, 0)
            put(f"{span}.{stat}", value, UNITS[stat], (span,))

    emit = [(t, s) for (s, p), (_, t, _) in tracer.agg.items()
            if s in EMIT_SPANS and p not in EMIT_SPANS]
    emit_bytes = sum(tracer.extra.get(s, {}).get("bytes", 0) for s in EMIT_SPANS)
    put("scenario.emit.s", sum(t for t, _ in emit), "s", tuple(EMIT_SPANS))
    put("scenario.emit.bytes", emit_bytes, "B", tuple(EMIT_SPANS))

    scanned = sum(c[1] for c in tracer.check_slices)
    total = sum(c[2] for c in tracer.check_slices)
    needs = KERNEL_SPANS + tuple(CHECK_SLICES)
    put("oracles.slices_scanned", scanned, "count", needs)
    put("oracles.slices_total", total, "count", needs)
    put("oracles.slices_ratio", scanned / total if total else 0, "ratio", needs)
    depth = [c[1] / c[2] for c in tracer.check_slices]
    put("oracles.scan_depth_ratio", sum(depth) / len(depth) if depth else 0, "ratio", needs)

    pareto_total = totals.get("oracles.pareto_check", (0, 0.0, 0.0))[1]
    for label, prefix in PARETO_SPLIT:
        part = sum(t for (s, p), (_, t, _) in tracer.agg.items()
                   if p == "oracles.pareto_check" and s.startswith(prefix))
        put(f"oracles.pareto_check.{label}_share", part / pareto_total if pareto_total else 0,
            "ratio", ("oracles.pareto_check",))
    self_s = pareto_total - totals.get("oracles.pareto_check", (0, 0.0, 0.0))[2]
    put("oracles.pareto_check.self_share", self_s / pareto_total if pareto_total else 0,
        "ratio", ("oracles.pareto_check",))

    put("trace.overhead_s", traced_s - untraced_s, "s")
    put("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio")
    return out
