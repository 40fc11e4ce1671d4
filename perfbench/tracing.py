"""Spans around the library's layer boundaries, installed from outside.

The tracer replaces every binding of each wrapped function inside the
``riskspace`` modules (package re-exports included) with a wrapper that
records a span: name, start, end, parent span and a small result summary.
Spans stay in memory until the run writes them out.  ``restore`` puts every
original back, so untraced passes run the library exactly as shipped.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) of each original; linprog is wrapped only where
# riskspace bound it, never inside scipy
WRAPPED = (
    ("scipy.optimize", "linprog"),
    ("riskspace.transport", "solve_ot_exact"),
    ("riskspace.distance", "_minimax_coupling_lp"),
    ("riskspace.distance", "risk_distance_exact"),
    ("riskspace.distance", "_alternating_upper_bound"),
    ("riskspace.distance", "lp_risk_distance"),
    ("riskspace.distance", "bilinear_gw"),
    ("riskspace.landscape", "connected_risk_distance_exact"),
    ("riskspace.landscape", "is_inverse_connected"),
    ("riskspace.landscape", "reeb_graph"),
    ("riskspace.landscape", "reeb_sandwich"),
    ("riskspace.empirical", "convergence_experiment"),
    ("riskspace.empirical", "rademacher_exact_small"),
    ("riskspace.empirical", "rademacher_gap_bound"),
)

NAME, START, END, PARENT, INFO = range(5)

# per-layer values that must repeat exactly between traced passes
COUNTS = (
    "lp.calls", "lp.simplex_iters", "transport.ot_calls", "distance.exact_calls",
    "distance.exact_lp_calls", "distance.improving_lp_frac",
    "distance.lp_distance_iters", "landscape.connected_lp_calls",
    "landscape.connectivity_checks", "landscape.survivor_frac",
    "empirical.convergence_exact_calls",
)


def _summary(name: str, result, kwargs) -> object:
    if name == "linprog":
        return (int(result.nit), float(result.fun))
    if name == "is_inverse_connected":
        return bool(result)
    if name == "lp_risk_distance":
        trace = kwargs.get("trace")
        return 0 if trace is None else len(trace)
    return None


def _riskspace_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "riskspace" or name.startswith("riskspace."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][END] = time.perf_counter()
                stack.pop()
            spans[index][INFO] = _summary(name, result, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        return wrapper

    def install(self):
        """Wrap every binding; each installation starts a new span list."""
        self.spans, self._stack = [], []
        modules = _riskspace_modules()
        for module_name, attr in WRAPPED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(attr, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def restore(self):
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def leftover_wrappers() -> list[str]:
    """Bindings inside riskspace that still hold a tracer wrapper."""
    return [f"{module.__name__}.{key}" for module in _riskspace_modules()
            for key, value in list(vars(module).items())
            if hasattr(value, "perfbench_span")]


def _outermost(spans, index: int, names: set[str]) -> int:
    """The outermost ancestor of a span whose name is in ``names``, or -1."""
    found = -1
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            found = parent
        parent = spans[parent][PARENT]
    return found


def _duration(span) -> float:
    return span[END] - span[START]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, busy and self times from one traced pass."""
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)

    def top(*names: str) -> list[int]:
        group = set(names)
        return [i for name in names for i in by_name[name]
                if _outermost(spans, i, group) < 0]

    def busy(indices) -> float:
        return float(sum(_duration(spans[i]) for i in indices))

    def under(indices, name: str) -> list[int]:
        """Spans called ``name`` nested inside one of the root spans."""
        roots = set(indices)
        kinds = {spans[i][NAME] for i in roots}
        return [i for i in by_name[name] if _outermost(spans, i, kinds) in roots]

    lps = by_name["linprog"]
    lp_busy = busy(lps)
    exact = top("risk_distance_exact")
    exact_lps = under(exact, "linprog")
    # minimax LPs in call order, grouped by their outermost exact call
    best: dict[int, float] = {}
    improving = minimax = 0
    for i in exact_lps:
        if spans[spans[i][PARENT]][NAME] != "_minimax_coupling_lp":
            continue
        root = _outermost(spans, i, {"risk_distance_exact"})
        fun = spans[i][INFO][1]
        minimax += 1
        if fun < best.get(root, float("inf")):
            improving += 1
            best[root] = fun
    connected = top("connected_risk_distance_exact")
    connected_lps = under(connected, "linprog")
    checks = by_name["is_inverse_connected"]
    convergence = top("convergence_experiment")
    return {
        "lp.calls": len(lps),
        "lp.busy_s": lp_busy,
        "lp.ms_per_call": 1000.0 * lp_busy / len(lps) if lps else 0.0,
        "lp.simplex_iters": sum(spans[i][INFO][0] for i in lps),
        "transport.ot_calls": len(by_name["solve_ot_exact"]),
        "transport.ot_busy_s": busy(top("solve_ot_exact")),
        "distance.exact_calls": len(exact),
        "distance.exact_busy_s": busy(exact),
        "distance.exact_self_s": busy(exact) - busy(exact_lps),
        "distance.exact_lp_calls": len(exact_lps),
        "distance.improving_lp_frac": improving / minimax if minimax else 0.0,
        "distance.fallback_busy_s": busy(top("_alternating_upper_bound")),
        "distance.lp_distance_busy_s": busy(top("lp_risk_distance")),
        "distance.lp_distance_iters": sum(spans[i][INFO] for i in by_name["lp_risk_distance"]),
        "distance.bilinear_gw_busy_s": busy(top("bilinear_gw")),
        "landscape.connected_busy_s": busy(connected),
        "landscape.connected_self_s": busy(connected) - busy(connected_lps),
        "landscape.connected_lp_calls": len(connected_lps),
        "landscape.connectivity_checks": len(checks),
        "landscape.connectivity_busy_s": busy(checks),
        "landscape.survivor_frac": (sum(spans[i][INFO] for i in checks) / len(checks)
                                    if checks else 0.0),
        "landscape.reeb_busy_s": busy(top("reeb_graph")),
        "empirical.convergence_busy_s": busy(convergence),
        "empirical.convergence_exact_calls": len(
            [i for i in exact if _outermost(spans, i, {"convergence_experiment"}) >= 0]),
        "empirical.rademacher_busy_s": busy(
            top("rademacher_exact_small", "rademacher_gap_bound")),
    }
