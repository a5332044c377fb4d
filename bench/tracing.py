"""Outside-in layer tracing for the benchmark.

``Tracer.install`` wraps public functions of every qtrin module from
outside; nothing under ``src/`` knows about it.  Each call records one
span (name, parent, start, end) in memory, and a few exact counters are
taken at the same boundaries.  Per-layer metrics are derived from the
spans after the run: a span's self time is its duration minus the time
its child spans cover.

A name imported with ``from .x import f`` is bound again in each
importing module, so each wrapper is installed in every module that
holds the original function.  ``lru_cache`` statistics are read from the
original cached callables, which are kept before any wrapping.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import time
from array import array
from collections import Counter

from qtrin import (acceptance, cli, identities, partitions, qblocks, series,
                   trinomials)

MODULES = (series, qblocks, trinomials, identities, partitions, acceptance,
           cli)
QBLOCK_FNS = ("gaussian_binomial", "q_poch", "poch_finite", "poch_infinite",
              "inv_poch_infinite", "inv_poch_series")
TRINOMIAL_FNS = ("round_trinomial", "t_trinomial", "refined_trinomial")
PARTITION_FNS = ("difference_side_count", "congruence_side_count",
                 "product_coefficients", "doublesum_coefficients")
CACHES = {
    "qblocks": ((qblocks, "q_poch"), (qblocks, "_gaussian_base")),
    "trinomials": ((trinomials, "_round_trinomial"),),
    "identities": ((identities, "_ratio3"), (identities, "_ratio4")),
}

# Each per-layer metric, and the end-to-end metric and workload it
# should move.  Written into every traced result.
MOVES = {
    "series.mul.calls": "wall_s, op_ms_p90 on sweep_exact and suite",
    "series.mul.self_s": "wall_s, op_ms_p90 on sweep_exact and suite",
    "series.mul.pair_ops": "wall_s, op_ms_p90 on sweep_exact and suite",
    "series.mul.trunc_pair_kept_ratio": "wall_s on series_trunc only",
    "series.exact_divide.calls": "wall_s on sweep_exact and suite; "
                                 "no change on series_trunc",
    "series.exact_divide.self_s": "wall_s on sweep_exact and suite; "
                                  "no change on series_trunc",
    "series.add.self_s": "wall_s on sweep_exact",
    "series.truncate.kept_ratio": "wall_s on suite",
    "series.first_mismatch.self_s": "op_ms_p50 on sweep_exact and "
                                    "series_trunc",
    "series.max_terms": "sizes operands for kernel work; moves nothing",
    "series.max_coeff_bits": "sizes operands for kernel work; moves nothing",
    **{f"qblocks.{fn}.{m}": "wall_s on series_trunc"
       if fn in ("inv_poch_series", "poch_finite")
       else "wall_s on sweep_exact and suite"
       for fn in QBLOCK_FNS for m in ("calls", "self_s")},
    "qblocks.cache_hit_ratio": "wall_s, peak_rss_mb on sweep_exact",
    "qblocks.cache_entries": "wall_s, peak_rss_mb on sweep_exact",
    **{f"trinomials.{fn}.{m}": "wall_s on sweep_exact and suite"
       for fn in TRINOMIAL_FNS for m in ("calls", "self_s")},
    "trinomials.cache_hit_ratio": "wall_s, peak_rss_mb on sweep_exact",
    "trinomials.cache_entries": "wall_s, peak_rss_mb on sweep_exact",
    "identities.lhs_s": "wall_s; says which side to optimise",
    "identities.rhs_s": "wall_s; says which side to optimise",
    "identities.compare_s": "wall_s; says which side to optimise",
    "identities.ratio_cache_hit_ratio": "wall_s on sweep_exact and suite",
    "identities.stabilization_s": "wall_s on suite",
    **{f"partitions.{fn}.self_s": "wall_s on series_trunc; none on "
       "sweep_exact" for fn in PARTITION_FNS},
    **{f"acceptance.crit{k:02d}_s": "wall_s on suite" for k in range(1, 12)},
    "cli.self_s": "op_ms_p50 on sweep_exact",
    # not layer metrics; reported with them by the traced run
    "error_rate": "failed / attempted ops; 0 on suite and sweep_exact, "
                  "6/47 on series_trunc at the reference commit",
    "trace.overhead_ratio": "traced over untraced pass wall time",
}


def _get(holder, key):
    if isinstance(holder, (dict, list)):
        return holder[key]
    return getattr(holder, key)


def _put(holder, key, value):
    if isinstance(holder, (dict, list)):
        holder[key] = value
    else:
        setattr(holder, key, value)


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._undo: list[tuple] = []
        self._caches = {layer: [getattr(m, a) for m, a in fns]
                        for layer, fns in CACHES.items()}
        self._cache_start = self._cache_stats()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` runs
        outside the span to update counters."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, open_ = self.span_start, self.span_end, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _set(self, holder, key, value):
        self._undo.append((holder, key, _get(holder, key)))
        _put(holder, key, value)

    def _rebind(self, home, attr: str, name: str, after=None):
        """Wrap ``home.attr`` in every module that holds the same object."""
        orig = getattr(home, attr)
        traced = self.wrap(name, orig, after)
        for holder in (home,) + MODULES:
            if holder.__dict__.get(attr) is orig:
                self._set(holder, attr, traced)

    def install(self):
        ls = series.LaurentSeries
        self._rebind(ls, "__mul__", "series.mul", self._count_mul)
        self._rebind(ls, "__add__", "series.add")
        self._rebind(ls, "truncate", "series.truncate", self._count_truncate)
        self._rebind(ls, "first_mismatch", "series.first_mismatch")
        self._rebind(series, "exact_divide", "series.exact_divide")
        for fn in QBLOCK_FNS:
            self._rebind(qblocks, fn, f"qblocks.{fn}")
        for fn in TRINOMIAL_FNS:
            self._rebind(trinomials, fn, f"trinomials.{fn}")
        for fn, name in (("verify_identity", "verify"),
                         ("verify_limit_stabilization", "stabilization"),
                         ("verify_lemma31", "lemma31"),
                         ("bailey_sides", "bailey_sides")):
            self._rebind(identities, fn, f"identities.{name}")
        for id, d in list(identities.REGISTRY.items()):
            self._set(identities.REGISTRY, id, dataclasses.replace(
                d, lhs=self.wrap("identities.lhs", d.lhs),
                rhs=self.wrap("identities.rhs", d.rhs)))
        for fn in PARTITION_FNS + ("capparelli_chain",):
            self._rebind(partitions, fn, f"partitions.{fn}")
        for k, (title, fn) in enumerate(acceptance.CRITERIA, start=1):
            self._set(acceptance.CRITERIA, k - 1,
                      (title, self.wrap(f"acceptance.crit{k:02d}", fn)))
        self._rebind(acceptance, "run_battery", "acceptance.run_battery")
        self._rebind(cli, "main", "cli.main")

    def restore(self):
        while self._undo:
            _put(*self._undo.pop())

    # -- counters ---------------------------------------------------------

    def _count_mul(self, args, result):
        a, b = args[0].terms, args[1].terms
        visits = len(a) * len(b)
        self.counts["mul.pair_ops"] += visits
        if result.cutoff is not None and visits:
            # the convolution visits every pair and keeps those landing
            # at or below the cutoff
            bs = sorted(b)
            cut = result.cutoff
            kept = sum(bisect.bisect_right(bs, cut - ea) for ea in a)
            self.counts["mul.trunc_pair_visits"] += visits
            self.counts["mul.trunc_pair_kept"] += kept
        self.maxima["terms"] = max(self.maxima["terms"], len(a), len(b),
                                   len(result.terms))
        if result.terms:
            bits = max(abs(c) for c in result.terms.values()).bit_length()
            self.maxima["coeff_bits"] = max(self.maxima["coeff_bits"], bits)

    def _count_truncate(self, args, result):
        self.counts["truncate.in"] += len(args[0].terms)
        self.counts["truncate.kept"] += len(result.terms)

    def _cache_stats(self) -> dict:
        out = {}
        for layer, fns in self._caches.items():
            infos = [f.cache_info() for f in fns]
            out[layer] = (sum(i.hits for i in infos),
                          sum(i.misses for i in infos),
                          sum(i.currsize for i in infos))
        return out

    # -- results ----------------------------------------------------------

    def _per_name(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        acc = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = acc[self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return acc

    def _compare_s(self) -> float:
        """Time of comparisons made inside verify_identity."""
        ids = self._ids
        fm, verify = ids.get("series.first_mismatch"), \
            ids.get("identities.verify")
        total = 0.0
        for i in range(len(self.span_name)):
            p = self.span_parent[i]
            if self.span_name[i] == fm and p >= 0 \
                    and self.span_name[p] == verify:
                total += self.span_end[i] - self.span_start[i]
        return total

    def metrics(self) -> dict:
        """Every per-layer metric named in MOVES, the bases of its ratios,
        per-span totals, and MOVES itself."""
        per = self._per_name()

        def calls(name):
            return per[name][0]

        def incl_s(name):
            return per[name][1]

        def self_s(name):
            return per[name][2]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        caches = self._cache_stats()
        cache_delta = {layer: tuple(now[k] - self._cache_start[layer][k]
                                    for k in range(2)) + (now[2],)
                       for layer, now in caches.items()}
        m = {
            "series.mul.calls": calls("series.mul"),
            "series.mul.self_s": self_s("series.mul"),
            "series.mul.pair_ops": c["mul.pair_ops"],
            "series.mul.trunc_pair_kept_ratio":
                ratio(c["mul.trunc_pair_kept"], c["mul.trunc_pair_visits"]),
            "series.exact_divide.calls": calls("series.exact_divide"),
            "series.exact_divide.self_s": self_s("series.exact_divide"),
            "series.add.self_s": self_s("series.add"),
            "series.truncate.kept_ratio":
                ratio(c["truncate.kept"], c["truncate.in"]),
            "series.first_mismatch.self_s": self_s("series.first_mismatch"),
            "series.max_terms": self.maxima["terms"],
            "series.max_coeff_bits": self.maxima["coeff_bits"],
        }
        for fn in QBLOCK_FNS:
            m[f"qblocks.{fn}.calls"] = calls(f"qblocks.{fn}")
            m[f"qblocks.{fn}.self_s"] = self_s(f"qblocks.{fn}")
        for fn in TRINOMIAL_FNS:
            m[f"trinomials.{fn}.calls"] = calls(f"trinomials.{fn}")
            m[f"trinomials.{fn}.self_s"] = self_s(f"trinomials.{fn}")
        for layer, key in (("qblocks", "qblocks.cache_hit_ratio"),
                           ("trinomials", "trinomials.cache_hit_ratio"),
                           ("identities",
                            "identities.ratio_cache_hit_ratio")):
            hits, misses, _ = cache_delta[layer]
            m[key] = ratio(hits, hits + misses)
        m["qblocks.cache_entries"] = cache_delta["qblocks"][2]
        m["trinomials.cache_entries"] = cache_delta["trinomials"][2]
        m["identities.lhs_s"] = incl_s("identities.lhs")
        m["identities.rhs_s"] = incl_s("identities.rhs")
        m["identities.compare_s"] = self._compare_s()
        m["identities.stabilization_s"] = incl_s("identities.stabilization")
        for fn in PARTITION_FNS:
            m[f"partitions.{fn}.self_s"] = self_s(f"partitions.{fn}")
        for k in range(1, 12):
            m[f"acceptance.crit{k:02d}_s"] = incl_s(f"acceptance.crit{k:02d}")
        m["cli.self_s"] = self_s("cli.main")
        bases = {
            "series.mul.trunc_pair_kept_ratio":
                [c["mul.trunc_pair_kept"], c["mul.trunc_pair_visits"]],
            "series.truncate.kept_ratio":
                [c["truncate.kept"], c["truncate.in"]],
            **{f"{layer}.cache_hits_misses": list(cache_delta[layer][:2])
               for layer in CACHES},
        }
        return {"metrics": m, "bases": bases, "moves": MOVES,
                "spans": {name: {"calls": row[0], "incl_s": row[1],
                                 "self_s": row[2]}
                          for name, row in per.items()}}

    def write_spans(self, path: str):
        """All spans, one ``[name, parent, start, end]`` row each."""
        rows = [[self.names[self.span_name[i]], self.span_parent[i],
                 self.span_start[i], self.span_end[i]]
                for i in range(len(self.span_name))]
        with open(path, "w") as f:
            json.dump({"spans": rows}, f, separators=(",", ":"))
