"""Per-layer spans and work counters for the engine, recorded from outside it.

The tracer wraps each layer's entry points in place (module functions and
class attributes) and puts every original back on `uninstall`. A span opens
only where control passes into a layer from another one, so recursion inside
a layer costs a counter check, not a span. A layer's self time is the time
spent in its spans minus the time of the spans they cause. Scalar operations
and convolution pairs are counted, not spanned. Spans stay in memory and are
written out once, after the sub-run.

Names imported by name into another module are patched in each module that
imports them (`linalg.solve` inside `automorphism`, `jordan_decompose`
inside `harness` and `cli`), since patching only the defining module would
miss those calls.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from vertextwist import (automorphism, chains, cli, harness, linalg, modes,
                         scalars, series, twisted, twistop)

LAYERS = ("harness", "series", "chains", "modes", "twistop", "linalg",
          "automorphism")

_RKEY = (0, 0)


def _is_rational(x) -> bool:
    if isinstance(x, scalars.Scalar):
        t = x.terms
        return not t or (len(t) == 1 and _RKEY in t)
    return isinstance(x, (int, Fraction))


class Tracer:
    def __init__(self):
        self.counts = {}
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.name_ns = {}
        self.spans = []          # (id, parent id, layer, name, start ns, end ns)
        self._stack = []         # [layer, name, start, child ns, id, parent]
        self._patched = []       # (owner, attribute, original)
        self._scalar_depth = [0]

    # -- spans -------------------------------------------------------------

    def _push(self, layer, name):
        parent = self._stack[-1][4] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append([layer, name, time.perf_counter_ns(), 0, sid,
                            parent])

    def _pop(self):
        end = time.perf_counter_ns()
        layer, name, start, child, sid, parent = self._stack.pop()
        dur = end - start
        self.self_ns[layer] += dur - child
        self.name_ns[name] = self.name_ns.get(name, 0) + dur
        if self._stack:
            self._stack[-1][3] += dur
        self.spans[sid] = (sid, parent, layer, name, start, end)

    def timed_root(self, fn):
        """Run one sub-run under a root span; return (result, start, end)."""
        self._push("harness", "subrun")
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            end = time.perf_counter()
            self._pop()
        return out, start, end

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        orig = vars(owner)[attr]
        setattr(owner, attr, make(orig))
        self._patched.append((owner, attr, orig))

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _spanned(self, layer, name, fn, counter=None):
        stack = self._stack
        push, pop, count = self._push, self._pop, self._count

        def wrapper(*args, **kw):
            if counter is not None:
                count(counter)
            if stack and stack[-1][0] == layer:
                return fn(*args, **kw)
            push(layer, name)
            try:
                return fn(*args, **kw)
            finally:
                pop()
        return wrapper

    def _counted(self, counter, fn):
        count = self._count

        def wrapper(*args, **kw):
            count(counter)
            return fn(*args, **kw)
        return wrapper

    def _span_in(self, owners, attr, layer, counter=None):
        for owner in owners:
            self._patch(owner, attr, lambda fn: self._spanned(
                layer, attr, fn, counter))

    def _scalar_op(self, counter, fn):
        # count only operations requested from outside the scalar ring, not
        # the ring's own re-dispatch (rational * Scalar calls Scalar * Fraction)
        depth = self._scalar_depth
        count = self._count
        mul = counter == "scalars.mul_calls"

        def wrapper(a, b):
            if depth[0]:
                return fn(a, b)
            depth[0] = 1
            try:
                count(counter)
                if mul and _is_rational(a) and _is_rational(b):
                    count("scalars.mul_rational")
                return fn(a, b)
            finally:
                depth[0] = 0
        return wrapper

    def install(self):
        S = scalars.Scalar
        for attr in ("__mul__", "__rmul__"):
            self._patch(S, attr, lambda fn: self._scalar_op(
                "scalars.mul_calls", fn))
        for attr in ("__add__", "__radd__", "__sub__"):
            self._patch(S, attr, lambda fn: self._scalar_op(
                "scalars.add_calls", fn))

        # series: terms_in with its cache, and the Product convolution
        def terms_in(fn):
            spanned = self._spanned("series", "terms_in", fn)
            count = self._count

            def wrapper(s, box):
                count("series.terms_in_calls")
                if box.key() in s._cache:
                    count("series.cache_hits")
                    return fn(s, box)
                out = spanned(s, box)
                count("series.terms_materialized", len(out))
                return out
            return wrapper
        self._patch(series.Series, "terms_in", terms_in)
        for owner in (series, twistop):
            self._patch(owner, "mono_add", lambda fn: self._counted(
                "series.conv_pairs_tried", fn))
        product_code = series.Product._terms_in.__code__

        def contains(fn):
            count = self._count
            getframe = sys._getframe

            def wrapper(box, m):
                kept = fn(box, m)
                if kept and getframe(1).f_code is product_code:
                    count("series.conv_pairs_kept")
                return kept
            return wrapper
        self._patch(series.Box, "contains", contains)

        # chains: enumeration and its operator slots
        self._span_in([chains.ChainSeries], "_terms_in", "chains",
                      "chains.enum_calls")
        self._patch(chains.OpSlot, "apply", lambda fn: self._counted(
            "chains.slot_applies", fn))

        # modes: the memoized mode oracle
        def oracle_apply(fn):
            spanned = self._spanned("modes", "apply", fn)
            count = self._count

            def wrapper(oracle, ukey, n, wkey):
                count("modes.apply_calls")
                if (ukey, n, wkey) in oracle._memo:
                    count("modes.memo_hits")
                return spanned(oracle, ukey, n, wkey)
            return wrapper
        self._patch(modes.ModeOracle, "apply", oracle_apply)
        self._span_in([modes.ModeOracle], "apply_vec", "modes")
        self._patch(modes.ModeOracle, "_compute", lambda fn: self._counted(
            "modes.computes", fn))

        # twistop: the twist slot, its memo and its L(-1) powers
        def slot_apply(fn):
            spanned = self._spanned("twistop", "TwistOpSlot.apply", fn)
            count = self._count

            def wrapper(slot, e, k, vec):
                count("twistop.slot_applies")
                count("twistop.slot_lookups", len(vec.comps))
                return spanned(slot, e, k, vec)
            return wrapper
        self._patch(twistop.TwistOpSlot, "apply", slot_apply)
        self._patch(twistop.TwistOpSlot, "_apply_key",
                    lambda fn: self._counted("twistop.slot_computes", fn))
        self._span_in([twistop], "_exp_L_terms", "twistop")
        self._patch(twisted.ModuleBase, "L_minus1", lambda fn: self._counted(
            "twistop.lminus1_calls", fn))

        # linalg, including the copies automorphism imported by name
        for attr, counter in (("solve", "linalg.solve_calls"),
                              ("mat_mul", "linalg.mat_mul_calls"),
                              ("kernel_basis", "linalg.kernel_calls")):
            self._span_in([linalg, automorphism], attr, "linalg", counter)

        # automorphism: Jordan data and the automorphism property checks
        self._span_in([automorphism, harness, cli], "jordan_decompose",
                      "automorphism")
        for attr in ("check_homomorphism", "check_derivation",
                     "check_conjugation"):
            self._span_in([automorphism, harness], attr, "automorphism")

    def uninstall(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        ok = all(vars(owner)[attr] is orig
                 for owner, attr, orig in self._patched)
        self._patched = []
        return ok

    # -- output ------------------------------------------------------------

    def summary(self, scale: float = 1.0) -> dict:
        """Raw counters and per-layer self times, the times multiplied by
        `scale`; ratios are formed later."""
        out = dict(self.counts)
        for layer, ns in self.self_ns.items():
            out[layer + ".self_s"] = ns / 1e9 * scale
        out["automorphism.jordan_s"] = self.name_ns.get(
            "jordan_decompose", 0) / 1e9 * scale
        out["spans"] = len(self.spans)
        return out

    def write_spans(self, path, trace_id):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"trace_id": trace_id,
                       "fields": ["id", "parent", "layer", "name",
                                  "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))
