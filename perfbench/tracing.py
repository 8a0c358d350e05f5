"""Layer tracing from outside the library: wrappers, spans, per-layer metrics.

``install`` wraps the public functions of every ``liestruct`` module, in
every module that binds them (``from .x import y`` copies the name, so
patching the defining module alone would miss most calls), plus the class
methods listed in ``METHODS`` and two private entry points that only feed
counters. Each wrapper appends a span ``[name, start, end, parent, request]``
to an in-memory list; ``write_spans`` saves it when the run ends.

A layer is a module: ``linalg``, ``poly``, ``lie``, ``endo``, ``decompose``,
``construct``, ``sections``, ``cli``. Two pseudo-layers are added:
``assembly``, the time spent producing the constraint rows that callers
stream into ``linalg.kernel_of_rows`` (one aggregated span per kernel call),
and ``memo``, the time in ``LieAlgebra.__hash__``. A layer's self time is the
duration of its spans minus the time of their child spans. Helpers called
once per scalar, vector entry or polynomial coefficient are left unwrapped
(``UNTRACED``); their time counts toward the layer that called them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Cheap helpers called per entry or per coefficient. A span on each would
# cost more than the helper itself.
UNTRACED = {
    "linalg": {"frac", "vector", "zero_vector", "unit_vector", "add_vectors",
               "scale_vector"},
    "poly": {"poly", "normalize", "degree", "is_zero", "poly_add", "poly_sub",
             "poly_scale", "poly_mul", "poly_divmod", "poly_mod", "poly_div_exact",
             "monic", "derivative", "poly_eval", "poly_str"},
    "sections": {"multi_factorial", "multi_binomial", "sub_indices"},
}

# Private functions wrapped only to read their results for counters.
PRIVATE = {("linalg", "_echelon"), ("decompose", "_primitive_idempotents_any")}

METHODS = {
    ("linalg", "Matrix"): ("__matmul__", "__add__", "__sub__", "scale", "inverse",
                           "power", "transpose", "apply"),
    ("linalg", "Subspace"): ("span", "reduce", "contains", "coordinates",
                             "contains_space", "sum", "intersect"),
    ("lie", "LieAlgebra"): ("bracket", "ad", "center", "bracket_span",
                            "commutator_algebra", "derived_series",
                            "lower_central_series", "killing_form", "flags",
                            "restrict_to", "quotient", "permuted"),
    ("endo", "EndoSpace"): ("basis_matrices", "contains", "coordinates"),
    ("construct", "CommutativeAlgebra"): ("product", "mult_matrix"),
}

# Every per-layer metric the traced run reports, with its unit. Times and
# counts are per pass of the workload mix.
UNITS = {
    "linalg.self_s": "s",
    "linalg.kernel_calls": "count",
    "linalg.kernel_rows": "count",
    "linalg.kernel_cols": "count",
    "linalg.kernel_rank": "count",
    "linalg.row_nnz_ratio": "ratio",
    "linalg.matmul_calls": "count",
    "linalg.max_entry_bits": "bits",
    "assembly.s": "s",
    "assembly.rows": "count",
    "endo.self_s": "s",
    "endo.calls": "count",
    "poly.self_s": "s",
    "poly.minpoly_calls": "count",
    "poly.factor_calls": "count",
    "poly.max_coeff_bits": "bits",
    "decompose.self_s": "s",
    "decompose.candidates": "count",
    "decompose.idempotents": "count",
    "decompose.candidates_per_idempotent": "ratio",
    "memo.hits": "count",
    "memo.misses": "count",
    "memo.hit_ratio": "ratio",
    "memo.hash_s": "s",
    "memo.repeat_share": "ratio",
    "lie.self_s": "s",
    "lie.build_s": "s",
    "construct.self_s": "s",
    "sections.self_s": "s",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "cli.report_kb": "KiB",
    "trace.overhead_pct": "%",
}

NNZ_SAMPLE = 8  # count nonzeros in every 8th constraint row


def _bits(values) -> int:
    """Largest bit length of the numerators and denominators in ``values``."""
    out = 0
    for v in values:
        out = max(out, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return out


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.request = -1
        self.counts = Counter()
        self.originals = []  # every wrapped function or method
        self.caches = []  # every functools.lru_cache among them
        self.cache_base = (0, 0)  # their (hits, misses) when wrapped

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], tracer.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return functools.update_wrapper(traced, fn)

    def wrap_kernel(self, name, fn):
        """kernel_of_rows: time and count the rows its caller streams in."""
        spans, stack, clock, counts = self.spans, self.stack, time.perf_counter, self.counts
        tracer = self

        def traced(rows, ncols):
            rec = [name, 0.0, 0.0, stack[-1], tracer.request]
            idx = len(spans)
            stack.append(idx)
            spans.append(rec)
            asm = [0.0, 0, 0, 0, -1]  # seconds, rows, sampled rows, sampled nonzeros, parent

            def counted():
                it = iter(rows)
                while True:
                    t0 = clock()
                    try:
                        row = next(it)
                    except StopIteration:
                        asm[0] += clock() - t0
                        return
                    asm[0] += clock() - t0
                    if asm[4] < 0:
                        asm[4] = stack[-1]
                    if asm[1] % NNZ_SAMPLE == 0:
                        asm[2] += 1
                        asm[3] += len(row) if isinstance(row, dict) else sum(1 for x in row if x)
                    asm[1] += 1
                    yield row

            rec[1] = clock()
            try:
                result = fn(counted(), ncols)
            finally:
                rec[2] = clock()
                stack.pop()
            parent = asm[4] if asm[4] >= 0 else idx
            spans.append(["assembly", rec[1], rec[1] + asm[0], parent, tracer.request])
            counts["kernel_calls"] += 1
            counts["kernel_rows"] += asm[1]
            counts["kernel_cols"] += ncols
            counts["kernel_rank"] += ncols - result.dim
            counts["nnz_sampled_entries"] += asm[2] * ncols
            counts["nnz_sampled"] += asm[3]
            return result

        return functools.update_wrapper(traced, fn)

    def _after_hook(self, name, via):
        counts = self.counts

        def echelon(pivots, _args):
            for row in pivots.values():
                if row:
                    bits = max(max(row), -min(row)).bit_length()
                    if bits > counts["max_entry_bits"]:
                        counts["max_entry_bits"] = bits

        def poly_bits(p, _args):
            bits = _bits(p)
            if bits > counts["max_coeff_bits"]:
                counts["max_coeff_bits"] = bits

        def min_poly(p, args):
            counts["minpoly_calls"] += 1
            if via == "decompose":
                counts["candidates"] += 1
            poly_bits(p, args)

        def factor(_result, _args):
            counts["factor_calls"] += 1

        def idempotents(result, _args):
            counts["idempotents"] += len(result[0])

        return {
            "linalg._echelon": echelon,
            "poly.char_poly": poly_bits,
            "poly.min_poly": min_poly,
            "poly.factor_small": factor,
            "decompose._primitive_idempotents_any": idempotents,
        }.get(name)

    def make_wrapper(self, name, fn, via):
        if name == "linalg.kernel_of_rows":
            return self.wrap_kernel(name, fn)
        return self.wrap(name, fn, self._after_hook(name, via))


def liestruct_modules():
    """(layer, module) for every imported liestruct module with code in it."""
    out = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not mod_name.startswith("liestruct."):
            continue
        layer = mod_name.split(".", 1)[1]
        if layer not in ("errors", "__main__"):
            out.append((layer, mod))
    return out


def _traced_functions():
    """{id: (span name, function)} of the module functions ``install`` wraps."""
    found = {}
    for layer, mod in liestruct_modules():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") and (layer, attr) not in PRIVATE:
                continue
            if isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # imported from elsewhere; wrapped where it is defined
            if attr in UNTRACED.get(layer, ()):
                continue
            found[id(obj)] = ("%s.%s" % (layer, attr), obj)
    return found


def install(ls) -> Tracer:
    """Wrap the library in place and return the tracer that records it."""
    tracer = Tracer()
    found = _traced_functions()
    binders = [ls] + [mod for _, mod in liestruct_modules()]
    for mod in binders:
        via = mod.__name__.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            hit = found.get(id(obj))
            if hit is not None and hit[1] is obj:
                setattr(mod, attr, tracer.make_wrapper(hit[0], obj, via))
    tracer.originals = [fn for _, fn in found.values()]
    tracer.caches = [fn for fn in tracer.originals if hasattr(fn, "cache_info")]
    tracer.cache_base = _cache_totals(tracer)
    modules = dict(liestruct_modules())
    for (layer, cls_name), names in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for attr in names:
            _patch_method(tracer, cls, attr, "%s.%s.%s" % (layer, cls_name, attr))
    _patch_method(tracer, modules["lie"].LieAlgebra, "__hash__", "memo.LieAlgebra.__hash__")
    return tracer


def _patch_method(tracer, cls, attr, name):
    raw = cls.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        tracer.originals.append(raw.__func__)
        setattr(cls, attr, type(raw)(tracer.wrap(name, raw.__func__)))
    else:
        tracer.originals.append(raw)
        setattr(cls, attr, tracer.wrap(name, raw))


def _cache_totals(tracer):
    infos = [fn.cache_info() for fn in tracer.caches]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics of the traced pass, per pass of the workload mix."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_s = Counter()
    calls = Counter()
    build_s = parse_s = emit_s = hash_s = 0.0
    outer_build = ("lie.build", "lie.from_dict")
    for i, (name, start, end, parent, _req) in enumerate(spans):
        dur = end - start
        layer = _layer(name)
        self_s[layer] += dur - child[i]
        calls[layer] += name.count(".") == 1  # module functions, not methods
        if name in outer_build and (parent < 0 or spans[parent][0] not in outer_build):
            build_s += dur
        elif name in ("cli.parse_algebra", "cli.parse_coefficient_algebra"):
            parse_s += dur
        elif name == "cli.emit":
            emit_s += dur
        elif layer == "memo":
            hash_s += dur
    counts = tracer.counts
    hits, misses = (now - base for now, base in zip(_cache_totals(tracer), tracer.cache_base))
    matmul = sum(1 for s in spans if s[0] == "linalg.Matrix.__matmul__")
    per = float(passes)
    return {
        "linalg.self_s": self_s["linalg"] / per,
        "linalg.kernel_calls": counts["kernel_calls"] / per,
        "linalg.kernel_rows": counts["kernel_rows"] / per,
        "linalg.kernel_cols": counts["kernel_cols"] / per,
        "linalg.kernel_rank": counts["kernel_rank"] / per,
        "linalg.row_nnz_ratio": counts["nnz_sampled"] / max(1, counts["nnz_sampled_entries"]),
        "linalg.matmul_calls": matmul / per,
        "linalg.max_entry_bits": counts["max_entry_bits"],
        "assembly.s": self_s["assembly"] / per,
        "assembly.rows": counts["kernel_rows"] / per,
        "endo.self_s": self_s["endo"] / per,
        "endo.calls": calls["endo"] / per,
        "poly.self_s": self_s["poly"] / per,
        "poly.minpoly_calls": counts["minpoly_calls"] / per,
        "poly.factor_calls": counts["factor_calls"] / per,
        "poly.max_coeff_bits": counts["max_coeff_bits"],
        "decompose.self_s": self_s["decompose"] / per,
        "decompose.candidates": counts["candidates"] / per,
        "decompose.idempotents": counts["idempotents"] / per,
        "decompose.candidates_per_idempotent":
            counts["candidates"] / max(1, counts["idempotents"]),
        "memo.hits": hits / per,
        "memo.misses": misses / per,
        "memo.hit_ratio": hits / max(1, hits + misses),
        "memo.hash_s": hash_s / per,
        "lie.self_s": self_s["lie"] / per,
        "lie.build_s": build_s / per,
        "construct.self_s": self_s["construct"] / per,
        "sections.self_s": self_s["sections"] / per,
        "cli.parse_s": parse_s / per,
        "cli.emit_s": emit_s / per,
    }


def write_spans(tracer: Tracer, path: str):
    """One tab-separated line per span: index, name, start, end, parent, request."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart\tend\tparent\trequest\n")
        for i, (name, start, end, parent, req) in enumerate(tracer.spans):
            fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (i, name, start, end, parent, req))
