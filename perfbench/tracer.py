"""In-process span tracing of fsig's layers, from outside the package.

Each probe wraps one public function at every `fsig.*` module attribute that
holds it, because modules import names with `from .x import f` and callers
look them up in their own module.  Spans (name, start, end, parent, case) are
kept in memory and written out once the run ends.  A layer's `_s` metric is
the summed self time of its spans: duration minus the time its direct child
spans cover, so the `_s` metrics of one run add up to at most the traced wall.
Wrappers can be installed and removed around each case (`with tracer:`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, case]
        self.counters: Dict[str, int] = defaultdict(int)
        self.case = -1
        self._stack: List[int] = []
        self._seen: Dict[str, set] = defaultdict(set)
        self._patches: List[tuple] = []
        self.diagnostics: Dict[int, str] = {}  # case -> unpinned fit values

    def begin_case(self, index: int):
        self.case = index
        self._seen.clear()  # (system, e) keys are per case; systems die with it

    # -- hooks: counters measured where the work happens ------------------

    def _first_time(self, kind: str, sys_, e) -> bool:
        key = (id(sys_), e)
        if key in self._seen[kind]:
            return False
        self._seen[kind].add(key)
        return True

    def _on_emit(self, args, kwargs, result):
        report = args[0].report
        if report is None or report.estimate is None:
            return
        note = f"estimate {report.estimate}, error_envelope {report.error_envelope}"
        if not 0 <= report.estimate <= 1:
            note += " (estimate outside [0, 1])"
        if report.ratio_estimate is not None:
            note += f", ratio_estimate {report.ratio_estimate}"
        self.diagnostics[self.case] = note

    def _on_splitting_ideal(self, args, kwargs, result):
        if not self._first_time("splitting_ideal", args[0], args[1]):
            self.counters["signature.splitting_ideal_repeats"] += 1

    def _on_splitting_number(self, args, kwargs, result):
        method = kwargs.get("method", args[2] if len(args) > 2 else "both")
        if method != "groebner":
            ring = args[0].ring
            self.counters["signature.box_cells"] += (ring.p ** args[1]) ** ring.nvars

    def _on_b_of(self, args, kwargs, result):
        if self._first_time("b_of", args[0], args[1]):
            self.counters["systems.b_gens"] += len(result.generators)

    def _on_colon(self, args, kwargs, result):
        self.counters["ideals.colon_calls"] += 1

    def _on_buchberger(self, args, kwargs, result):
        self.counters["groebner.buchberger_calls"] += 1
        self.counters["groebner.basis_size"] += len(result)

    def _on_polyhedron(self, args, kwargs, result):
        self.counters["newton.polyhedron_calls"] += 1

    def _on_clip(self, args, kwargs, result):
        self.counters["newton.vertices"] += len(result.vertices)
        self.counters["newton.simplices"] += len(result.simplices)

    # (span name, module, attribute, hook); "Class.method" patches the class
    def probes(self):
        return [
            ("cli.parse", "fsig.cli", "parse_problem_file", None),
            ("cli.emit", "fsig.cli", "emit_report", self._on_emit),
            ("signature.rank_route", "fsig.signature", "splitting_number",
             self._on_splitting_number),
            ("signature.splitting_ideal", "fsig.signature", "splitting_ideal",
             self._on_splitting_ideal),
            ("signature.prime_candidate", "fsig.signature", "splitting_prime_candidate", None),
            ("signature.compatibility", "fsig.signature", "compatibility_check", None),
            ("signature.is_f_pure", "fsig.signature", "is_f_pure", None),
            ("ideals.colon", "fsig.ideals", "colon", self._on_colon),
            ("groebner.quotient_length", "fsig.groebner", "quotient_length", None),
            ("groebner.buchberger", "fsig.groebner", "buchberger", self._on_buchberger),
            ("systems.b_of", "fsig.systems", "FGradedSystem.b_of", self._on_b_of),
            ("newton.polyhedron", "fsig.newton", "newton_polyhedron", self._on_polyhedron),
            ("newton.clip", "fsig.newton", "clip", self._on_clip),
            ("newton.volume", "fsig.newton", "ClippedPolytope.volume", None),
        ]

    # -- installing and removing the wrappers -----------------------------

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.case])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fsig" or n.startswith("fsig."))]
        for name, modname, attr, hook in self.probes():
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    setattr(holder, attr, wrapper)
                    self._patches.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def self_times(self) -> Dict[tuple, float]:
        """Summed self time per (case, span name)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[tuple, float] = defaultdict(float)
        for (name, start, end, _, case), inner in zip(self.spans, child_time):
            totals[case, name] += (end - start) - inner
        return totals

    def dump(self, path: str, case_names: List[str]):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"cases": case_names,
                       "fields": ["name", "start", "end", "parent", "case"],
                       "spans": self.spans,
                       "counters": dict(self.counters)}, handle)
