"""Spans and counters recorded from outside the package.

The tracer replaces the public functions of each layer module with
wrappers, in every module of the package that holds a reference to
them, so calls between layers (evaluator -> build_table, oracles ->
laguerre_eval) pass through the wrappers too.  Nothing inside the
package changes.  Spans stay in memory until the run writes them out.

Only the calling thread is traced: the package calls its public
functions from the main thread (the Monte Carlo worker threads run a
private chunk function), so one stack suffices.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "evaluator", "coefficients", "special_functions", "oracles")
# Leaf functions called thousands of times per request: counted and timed,
# but no span per call.
HOT = {
    "coefficients.coeff_a",
    "coefficients.coeff_b",
    "coefficients.coeff_c",
    "special_functions.harmonic",
    "special_functions.laguerre_coeffs",
    "special_functions.laguerre_eval",
    "special_functions.upper_gamma_int",
}
EI = "special_functions.ei_exp_scaled"
# e^t Ei(-t) takes the mpmath series at or below this t.
EI_SERIES_MAX_T = 8.0


def public_functions(module):
    """(name, object) of the functions a module defines and exports."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Per-function call counts, time and self time, plus spans.

    time_s counts only outermost calls of a function, so recursion is not
    counted twice; self_s is the time not spent in wrapped callees.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, time_s, self_s
        self.ei_series_calls = 0
        self.spans: list[tuple] = []  # (name, start, end, parent id, request id)
        self.request = None
        self._frames: list[list] = []  # [child time, span id]
        self._depth = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple] = []

    def install(self, package, modules) -> None:
        """Wrap the public functions of `modules` (name -> module) wherever
        a module of `package` binds them."""
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        holders = [package] + [m for m in vars(package).values() if inspect.ismodule(m)]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((holder, attr, obj))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._patches):
            setattr(holder, attr, obj)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        span = name not in HOT
        ei = name == EI
        frames, depth = self._frames, self._depth

        def wrapper(*args, **kwargs):
            if ei and args and args[0] <= EI_SERIES_MAX_T:
                self.ei_series_calls += 1
            parent = frames[-1][1] if frames else None
            sid = parent
            if span:
                sid = self._next_id
                self._next_id += 1
            frame = [0.0, sid]
            frames.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                depth[name] -= 1
                dur = end - start
                stats[0] += 1
                if depth[name] == 0:
                    stats[1] += dur
                stats[2] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                if span:
                    self.spans.append((name, sid, start, end, parent, self.request))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def take_stats(self) -> dict:
        """Counters since the last call, then reset them."""
        out = {name: tuple(v) for name, v in self.stats.items()}
        out["ei_series_calls"] = self.ei_series_calls
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.ei_series_calls = 0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, sid, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
