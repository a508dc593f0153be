"""Spans and counters around the program's layer functions, from outside.

`Tracer.install()` replaces module attributes of eternal_kit with timing
wrappers and `remove()` puts the originals back; nothing under src/ knows.
Calls inside a module go through its globals, so a wrapped `_square` is seen
by `step` as well as by the benchmark.  A span's self time is its duration
minus the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import inspect
from collections import Counter
from time import perf_counter

from eternal_kit import cli, elliptic, evolve, portraits, resonance, spectrum
from eternal_kit.errors import BlowupSignal

#: span name -> (module or class, attribute)
SPANS = {
    "evolve.square": (evolve, "_square"),
    "evolve.step": (evolve, "step"),
    "evolve.tables": (evolve, "_etdrk4_tables"),
    "evolve.advance": (evolve, "_advance"),
    "evolve.history.push": (evolve._History, "push"),
    "evolve.detect_blowup": (evolve, "detect_blowup"),
    "evolve.schrodinger_evolve": (evolve, "schrodinger_evolve"),
    "evolve.heteroclinic_shoot": (evolve, "heteroclinic_shoot"),
    "evolve.analyticity_boundary": (evolve, "analyticity_boundary"),
    "evolve.refine": (evolve, "_refine_crossing"),
    "elliptic.branch_point": (elliptic, "branch_point"),
    "spectrum.eigen": (spectrum, "eigen"),
    "resonance.check": (resonance, "identical_resonance_check"),
    "portraits.enumerate": (portraits, "enumerate_diagrams"),
    "portraits.count": (portraits, "count_portraits"),
    "cli.main": (cli, "main"),
}

#: counted but not timed: called too often for a span to be cheap
COUNTS = {
    "portraits.diagrams_built": (portraits.ChordDiagram, "__post_init__"),
    "evolve.error_estimates": (evolve, "_h1_diff"),
}

DIVERGED = (evolve.REASON_NORM, evolve.REASON_STEP)
ENDGAME = 0.99   # accepted steps past this share of the final r are the endgame


class Tracer:
    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPANS}   # calls, total_s, self_s
        self.counts = Counter()
        self.table_build_s = 0.0
        self._open: list[list] = []      # [name, child_s] of the spans now running
        self._undo: list[tuple] = []
        self._tables = getattr(evolve, "_etdrk4_tables", None)

    # -- installing -------------------------------------------------------

    def install(self):
        for name, (owner, attr) in SPANS.items():
            orig = getattr(owner, attr, None)
            if orig is None:
                continue      # the layer is gone; its metrics read 0
            self._set(owner, attr, self._span(name, self._decorate(name, orig)))
        for name, (owner, attr) in COUNTS.items():
            orig = getattr(owner, attr, None)
            if orig is not None:
                self._set(owner, attr, self._counted(name, orig))

    def remove(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _set(self, owner, attr, fn):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def _span(self, name, fn):
        rec = self.spans[name]
        open_ = self._open

        def span(*args, **kwargs):
            frame = [name, 0.0]
            open_.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                open_.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if open_:
                    open_[-1][1] += dt
        return span

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _decorate(self, name, fn):
        """Layer-specific counting inside the span."""
        if name == "evolve.step":
            return self._step(fn)
        if name == "evolve.tables" and hasattr(fn, "cache_info"):
            return self._table_lookup(fn)
        if name == "evolve.advance" and "on_accept" in inspect.signature(fn).parameters:
            return self._advance(fn)
        return fn

    def _step(self, fn):
        counts = self.counts

        def step(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BlowupSignal:
                counts["evolve.step.blowup_signals"] += 1
                raise
        return step

    def _table_lookup(self, fn):
        def lookup(*args, **kwargs):
            misses = fn.cache_info().misses
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            if fn.cache_info().misses != misses:
                self.table_build_s += perf_counter() - t0
            return out
        return lookup

    def _advance(self, fn):
        counts, open_ = self.counts, self._open

        def advance(*args, **kwargs):
            if len(open_) > 1 and open_[-2][0] == "evolve.refine":
                counts["evolve.refine.advance_calls"] += 1
            user = kwargs.get("on_accept")
            reached: list[float] = []

            def on_accept(prev, new):
                reached.append(new.r)
                return None if user is None else user(prev, new)

            kwargs["on_accept"] = on_accept
            final, status = fn(*args, **kwargs)
            counts["evolve.advance.accepted"] += len(reached)
            if status in DIVERGED:
                edge = ENDGAME * final.r
                counts["evolve.advance.endgame_accepted"] += sum(r >= edge for r in reached)
            return final, status
        return advance

    # -- reading ----------------------------------------------------------

    def tables_info(self):
        return self._tables.cache_info() if hasattr(self._tables, "cache_info") else None

    def metrics(self, tables_before, tables_after) -> dict:
        """Per-layer figures of everything traced since this tracer was made."""
        sp, c = self.spans, self.counts
        accepted = c["evolve.advance.accepted"]
        attempts = c["evolve.error_estimates"] + c["evolve.step.blowup_signals"]
        hits = misses = 0
        if tables_before is not None:
            hits = tables_after.hits - tables_before.hits
            misses = tables_after.misses - tables_before.misses
        return {
            "evolve.square.calls": sp["evolve.square"][0],
            "evolve.square.self_s": sp["evolve.square"][2],
            "evolve.step.calls": sp["evolve.step"][0],
            "evolve.step.self_s": sp["evolve.step"][2],
            "evolve.tables.hits": hits,
            "evolve.tables.misses": misses,
            "evolve.tables.build_s": self.table_build_s,
            "evolve.advance.accepted": accepted,
            "evolve.advance.rejected": max(0, attempts - accepted),
            "evolve.advance.self_s": sp["evolve.advance"][2],
            "evolve.advance.evals_per_accepted":
                sp["evolve.square"][0] / accepted if accepted else 0.0,
            "evolve.advance.endgame_accepted": c["evolve.advance.endgame_accepted"],
            "evolve.history.push_s": sp["evolve.history.push"][1],
            "evolve.detect_blowup.self_s": sp["evolve.detect_blowup"][2],
            "evolve.schrodinger_evolve.self_s": sp["evolve.schrodinger_evolve"][2],
            "evolve.heteroclinic_shoot.self_s": sp["evolve.heteroclinic_shoot"][2],
            "evolve.analyticity_boundary.self_s": sp["evolve.analyticity_boundary"][2],
            "evolve.refine.self_s": sp["evolve.refine"][2],
            "evolve.refine.advance_calls": c["evolve.refine.advance_calls"],
            "elliptic.branch_point.s": sp["elliptic.branch_point"][1],
            "spectrum.eigen.calls": sp["spectrum.eigen"][0],
            "spectrum.eigen.s": sp["spectrum.eigen"][1],
            "resonance.check.s": sp["resonance.check"][1],
            "portraits.enumerate.s": sp["portraits.enumerate"][1],
            "portraits.diagrams_built": c["portraits.diagrams_built"],
            "portraits.count.s": sp["portraits.count"][1],
            "cli.main.self_s": sp["cli.main"][2],
        }
