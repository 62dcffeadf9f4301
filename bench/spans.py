"""In-memory spans and counters around the benchmark's calls into malcevlab.

A span is (name, start, end, query id, tag); its name is the
``<module>.<function>`` of the public call it wraps.  Spans and counters
are kept per round and folded into per-layer metrics when the run ends.
With tracing off, ``call`` is a plain call and no span is kept.
"""

from __future__ import annotations

import gc
import statistics
from collections import Counter
from time import perf_counter

# span name -> layer time metric; the tag of a malcev_search span (its
# outcome) also feeds malcev.<outcome>_s
SPAN_METRICS = {
    "fileformat.load_algebra": "fileformat.load_ms",
    "fileformat.load_class": "fileformat.load_ms",
    "fileformat.load_signature": "fileformat.load_ms",
    "terms.parse_term": "terms.parse_s",
    "terms.parse_quasiidentity": "terms.parse_s",
    "terms.check_quasiidentity": "terms.check_s",
    "malcev.malcev_search": "malcev.search_s",
    "malcev.detect_biternary": "malcev.biternary_s",
    "malcev.translation_group": "malcev.translation_s",
    "congruences.all_congruences": "congruences.lattice_s",
    "congruences.compose_permute": "congruences.permute_s",
    "congruences.quotient": "congruences.quotient_s",
    "quasigroups.multiplication_group": "quasigroups.mulgroup_s",
    "classes.free_algebra": "classes.free_s",
    "classes.membership_in_closure": "classes.member_s",
    "classes.replica": "classes.replica_s",
    "algebras.find_homomorphisms": "algebras.homs_s",
    "algebras.direct_product": "algebras.product_s",
    "cli.main": "cli.main_ms",
}

MS_METRICS = {"fileformat.load_ms", "cli.main_ms"}


class Tracer:
    """Spans and counters of one round; ``on`` switches span recording."""

    def __init__(self):
        self.query = None
        self._gc_start = None
        self._gc_watch = False
        self.reset(False)
        gc.callbacks.append(self._gc_event)

    def reset(self, on):
        self.on = on
        self.spans = []
        self.counts = Counter()
        self.gc_s = 0.0
        self.gc_collections = 0

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, perf_counter(), self.query, None])

    def tag(self, tag):
        """Label the latest span, e.g. with a search outcome."""
        if self.on:
            self.spans[-1][4] = tag

    def add(self, counter, value=1):
        self.counts[counter] += value

    def watch_gc(self, active):
        """Count collector time only while a query is being timed."""
        self._gc_watch = active

    def _gc_event(self, phase, info):
        if not (self.on and self._gc_watch):
            return
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def round_layers(self):
        """Per-layer times and counters of this round."""
        out = Counter()
        for name, start, end, _query, tag in self.spans:
            metric = SPAN_METRICS.get(name)
            if metric is None:
                continue
            scale = 1000.0 if metric in MS_METRICS else 1.0
            out[metric] += (end - start) * scale
            if name == "malcev.malcev_search" and tag:
                out[f"malcev.{tag}_s"] += end - start
        out.update(self.counts)
        out["runtime.gc_s"] = self.gc_s
        out["runtime.gc_collections"] = self.gc_collections
        return out


def fold_rounds(rounds):
    """Median over traced rounds of each per-round layer value."""
    names = set().union(*rounds) if rounds else set()
    return {name: statistics.median(r.get(name, 0) for r in rounds)
            for name in names}
