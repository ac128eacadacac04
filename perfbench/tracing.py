"""Spans and work counts recorded around calls into moca's public functions.

Nothing here edits the library.  While a `Tracer` is enabled, each traced
function is rebound, in every `moca.*` module namespace that holds it, to a
wrapper that records a span (name, start, end, parent, failed) and adds the
work counts computed from the call's arguments and return value.  Calls the
library makes between its own modules go through those namespaces too, so
`cli.main -> sentence.find_model -> algebra.mat_mul` nests as it runs.
Disabling restores every original binding, so untraced code pays nothing.

Spans stay in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "sentence", "ca", "algebra", "patterns", "linear_ca",
          "finiteness", "randomized")


def _term_products(args, kwargs, result):
    a, b = args[0], args[1]
    total = 0
    for k in range(a.d):
        left = sum(len(a.entries[i][k].terms) for i in range(a.d))
        right = sum(len(b.entries[k][j].terms) for j in range(b.d))
        total += left * right
    return (("algebra.term_products", total),)


def _site_reads(args, kwargs, result):
    mat, window = args[1], args[2]
    return (("patterns.site_reads", len(window) * len(mat.support())),)


def _assignments(args, kwargs, result):
    n = result.witness_index + 1 if result.sat else result.space
    return (("sentence.assignments", n),)


def _rules_scanned(args, kwargs, result):
    return (("ca.rules_scanned", result.total),)


def _pairs(args, kwargs, result):
    return (("ca.pairs", result.extra["pairs"]),)


def _flat_cells(args, kwargs, result):
    return (("finiteness.flat_cells", result.size * result.size),)


def _rank_name(args, kwargs):
    return ("finiteness.gauss_rank.fq" if args[0].field.is_finite()
            else "finiteness.gauss_rank.q")


# (module, attribute, span name or callable naming the span, counter)
TARGETS = (
    ("moca.cli", "main", "cli.main", None),
    ("moca.sentence", "build_sentence", "sentence.build_sentence", None),
    ("moca.sentence", "find_model", "sentence.find_model", _assignments),
    ("moca.sentence", "decode_witness", "sentence.decode_witness", None),
    ("moca.ca", "direct_finiteness_scan", "ca.direct_finiteness_scan", _pairs),
    ("moca.ca", "surjunctivity_scan", "ca.surjunctivity_scan", _rules_scanned),
    ("moca.ca", "left_inverse", "ca.left_inverse", None),
    ("moca.ca", "compose_rules", "ca.compose_rules", None),
    ("moca.ca", "full_map", "ca.full_map", None),
    ("moca.algebra", "AlgMatrix.__mul__", "algebra.mat_mul", _term_products),
    ("moca.patterns", "convolve_matrix", "patterns.convolve_matrix", _site_reads),
    ("moca.linear_ca", "lca_compose", "linear_ca.lca_compose", None),
    ("moca.finiteness", "flatten", "finiteness.flatten", _flat_cells),
    ("moca.finiteness", "flat_mul", "finiteness.flat_mul", None),
    ("moca.finiteness", "gauss_rank", _rank_name, None),
    ("moca.finiteness", "certify_two_sided", "finiteness.certify", None),
    ("moca.randomized", "random_matrix", "randomized.random_matrix", None),
    ("moca.randomized", "random_unit_pair", "randomized.random_unit_pair", None),
    ("moca.randomized", "random_vector_pattern",
     "randomized.random_vector_pattern", None),
)

SPAN_NAMES = tuple(sorted(
    {t[2] for t in TARGETS if isinstance(t[2], str)}
    | {"finiteness.gauss_rank.fq", "finiteness.gauss_rank.q"}))

COUNT_NAMES = ("sentence.assignments", "ca.rules_scanned", "ca.pairs",
               "algebra.term_products", "patterns.site_reads",
               "finiteness.flat_cells")


class Tracer:
    """Records spans and counts; `bucket` tags them with the current round."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, bucket, failed]
        self.stack = []
        self.counts = defaultdict(lambda: defaultdict(int))  # bucket -> name -> n
        self.bucket = "setup"
        self._saved = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.bucket, False])
        self.stack.append(idx)
        return idx

    def close(self, idx, failed=False):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = failed
        self.stack.pop()

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            if counter is not None:
                bucket = tracer.counts[tracer.bucket]
                for key, n in counter(args, kwargs, result):
                    bucket[key] += n
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def enable(self):
        """Rebind every target in each loaded moca module to its wrapper."""
        if self._saved:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "moca" or n.startswith("moca.")) and m is not None]
        for modname, attr, name, counter in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def disable(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- aggregation -------------------------------------------------------

    def summarize(self, rounds):
        """Busy time, self time, calls and failures per name and layer.

        Loop figures are per round: the mean over rounds 0..rounds-1 plus
        the prologue (bucket -1), once.  Setup figures are totals.  A span
        nested inside a span of the same name is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, bucket, failed in spans:
            if parent is not None:
                child_time[parent] += end - start
        sums = defaultdict(int)  # (setup | prologue | rounds, key) -> total
        for idx, (name, start, end, parent, bucket, failed) in enumerate(spans):
            part = bucket if bucket in ("setup", -1) else "rounds"
            dur = end - start
            layer = name.split(".")[0]
            sums[(part, layer + ".self_s")] += dur - child_time[idx]
            sums[(part, layer + ".calls")] += 1
            sums[(part, layer + ".failures")] += failed
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                sums[(part, name + ".busy_s")] += dur
        per = defaultdict(float)  # (setup | loop, key) -> value
        for (part, key), total in sums.items():
            if part == "setup":
                per[("setup", key)] += total
            else:
                per[("loop", key)] += total / rounds if part == "rounds" else total
        return per

    def count_totals(self, rounds):
        """Counts of the prologue plus round 0, and whether rounds agree."""
        first = dict(self.counts.get(0, {}))
        agree = all(dict(self.counts.get(r, {})) == first
                    for r in range(1, rounds))
        total = defaultdict(int, first)
        for key, n in self.counts.get(-1, {}).items():
            total[key] += n
        return total, agree

    def dump(self):
        return [[n, round(s, 9), round(e, 9), p, b, f]
                for n, s, e, p, b, f in self.spans]
