"""Spans and counters recorded from outside herzkit.

``Tracer.install`` replaces each traced public function with a wrapper in
every herzkit module that binds it (``norm_ascent`` is bound in ``ascent``,
``gamma2``, ``multipliers`` and ``isometry``, for instance), and wraps the
``numpy.linalg`` SVD and Hermitian eigensolvers.  Nothing inside ``src/``
changes.  A span records its name, start, end, parent and request id; spans
stay in memory and ``layer_metrics`` turns them into per-layer call counts
and self times (a span's duration minus its direct children's).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

# defining module -> {public function: span name}
TRACED = {
    "core": {"schatten_norm": "core.schatten_norm"},
    "ascent": {"norm_ascent": "ascent.norm_ascent"},
    "gamma2": {"gamma2": "gamma2.gamma2",
               "check_certificate": "gamma2.check_certificate"},
    "multipliers": {
        "multiplier_norm": "multipliers.multiplier_norm",
        "cb_norm_ladder": "multipliers.cb_norm_ladder",
        "inclusion_monotonicity_report": "multipliers.inclusion_monotonicity_report",
    },
    "herz": {
        "herz_norm": "herz.herz_norm",
        "herz_tensor": "herz.algebra",
        "herz_schur_product": "herz.algebra",
        "herz_truncate": "herz.algebra",
        "submultiplicativity_check": "herz.submultiplicativity_check",
    },
    "isometry": {
        "classify_isometric": "isometry.classify_isometric",
        "isometry_witness_search": "isometry.isometry_witness_search",
        "dft_decompose": "isometry.dft_decompose",
    },
    "structure": {
        "verify_product_diagram": "structure.verify_product_diagram",
        "verify_diag_embed_diagram": "structure.verify_diag_embed_diagram",
        "partial_isometry_check": "structure.partial_isometry_check",
    },
    "verify": {"run_suite": "verify.run_suite"},
    "cli": {"main": "cli.main"},
    # every public io function is filled in from io.__all__ at install time
    "io": {},
}
KERNELS = {"svd": "kernel.svd", "eigh": "kernel.eigh", "eigvalsh": "kernel.eigh"}
KERNEL_COUNTERS = ("kernel.flops_computed", "kernel.bytes_computed")

# spans whose self time and calls are reported (kernels and io included)
SPAN_NAMES = sorted({name for fns in TRACED.values() for name in fns.values()}
                    | {"io"} | set(KERNELS.values()))
COUNTERS = (
    "ascent.norm_ascent.iters",
    "gamma2.gamma2.iters_reported",
    "gamma2.gamma2.converged",
    "herz.herz_norm.iters_reported",
    "herz.herz_norm.converged",
    "multipliers.cb_norm_ladder.iters_reported",
)


def kernel_cost(kind: str, shape: tuple, is_complex: bool, uv: bool) -> tuple[float, float]:
    """Computed (not measured) flops and bytes of one numpy.linalg call.

    Textbook counts for dense LAPACK drivers (Golub and Van Loan): SVD with
    vectors 4m^2n + 8mn^2 + 9n^3 (m >= n), values only 4mn^2 - 4n^3/3;
    Hermitian eigensolver 9n^3 with vectors, 4n^3/3 without.  Complex
    arithmetic counts four real flops per complex one; stacked inputs
    multiply by the batch size.  Bytes are the input plus output arrays.
    """
    batch = math.prod(shape[:-2])
    m, n = max(shape[-2:]), min(shape[-2:])
    if kind == "svd":
        flops = (4 * m * m * n + 8 * m * n * n + 9 * n ** 3) if uv \
            else (4 * m * n * n - 4 * n ** 3 / 3)
        out_elems = (m * m + n * n) if uv else 0
        out_real = n
    else:
        flops = 9 * n ** 3 if uv else 4 * n ** 3 / 3
        out_elems = n * n if uv else 0
        out_real = n
    item = 16 if is_complex else 8
    if is_complex:
        flops *= 4
    nbytes = item * (m * n + out_elems) + 8 * out_real
    return batch * flops, float(batch * nbytes)


class Tracer:
    """In-memory span recorder; one per traced pass or process."""

    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index, request]
        self.counts = dict.fromkeys(COUNTERS, 0.0)
        self.kernel_shapes: Counter = Counter()   # (kind, shape, complex, uv)
        self.request = -1
        self._stack: list[int] = []
        self._patched: list = []    # (owner, attribute, original)

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if count is not None:
                count(result, args, kwargs)
            return result

        return wrapper

    def _count_result(self, name):
        c = self.counts
        if name == "ascent.norm_ascent":
            def count(res, a, k):
                c["ascent.norm_ascent.iters"] += res.iterations
        elif name == "gamma2.gamma2":
            def count(res, a, k):
                c["gamma2.gamma2.iters_reported"] += res[0].iterations
                c["gamma2.gamma2.converged"] += bool(res[0].converged)
        elif name == "herz.herz_norm":
            def count(res, a, k):
                c["herz.herz_norm.iters_reported"] += res.bracket.iterations
                c["herz.herz_norm.converged"] += bool(res.bracket.converged)
        elif name == "multipliers.cb_norm_ladder":
            def count(res, a, k):
                c["multipliers.cb_norm_ladder.iters_reported"] += \
                    sum(b.iterations for b in res)
        else:
            count = None
        return count

    def install(self) -> None:
        """Wrap every traced function in every herzkit namespace binding it."""
        import importlib

        import numpy as np

        import herzkit
        import herzkit.io

        for mod in TRACED:
            importlib.import_module(f"herzkit.{mod}")
        names = {mod: dict(fns) for mod, fns in TRACED.items()}
        names["io"] = {fn: "io" for fn in herzkit.io.__all__}
        wrappers = {}
        for mod, fns in names.items():
            module = sys.modules[f"herzkit.{mod}"]
            for attr, span in fns.items():
                original = getattr(module, attr)
                wrappers[id(original)] = (original, self._wrap(
                    span, original, self._count_result(span)))
        for modname, module in list(sys.modules.items()):
            if modname != "herzkit" and not modname.startswith("herzkit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

        shapes = self.kernel_shapes
        for attr, span in KERNELS.items():
            kind = "svd" if attr == "svd" else "eigh"
            with_vectors = attr != "eigvalsh"

            def count(res, a, k, kind=kind, uv=with_vectors):
                x = np.asarray(a[0])
                if kind == "svd":
                    uv = k.get("compute_uv", a[2] if len(a) > 2 else True)
                shapes[(kind, x.shape, x.dtype.kind == "c", bool(uv))] += 1

            self._patch(np.linalg, attr, self._wrap(span, getattr(np.linalg, attr), count))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, self and total milliseconds; plus counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
               for name in SPAN_NAMES}
        for (name, start, end, parent, _), kids in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["self_ms"] += 1e3 * (end - start - kids)
            row["total_ms"] += 1e3 * (end - start)
        counts = dict(self.counts)
        counts["kernel.flops_computed"] = counts["kernel.bytes_computed"] = 0.0
        for key, calls in self.kernel_shapes.items():
            flops, nbytes = kernel_cost(*key)
            counts["kernel.flops_computed"] += calls * flops
            counts["kernel.bytes_computed"] += calls * nbytes
        return {"spans": out, "counts": counts}


def merge(summaries: list) -> dict:
    """Add up summaries from several processes or passes."""
    out = {"spans": {name: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
                     for name in SPAN_NAMES},
           "counts": dict.fromkeys(COUNTERS + KERNEL_COUNTERS, 0.0)}
    for s in summaries:
        for name, row in s["spans"].items():
            for key in row:
                out["spans"][name][key] += row[key]
        for key, value in s["counts"].items():
            out["counts"][key] += value
    return out


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values, named as in BENCHMARK.json."""
    spans, counts = summary["spans"], summary["counts"]
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (spans[name]["calls"], "count")
        m[f"{name}.self_ms"] = (spans[name]["self_ms"], "ms")
    m["ascent.norm_ascent.iters"] = (counts["ascent.norm_ascent.iters"], "count")
    for key in ("gamma2.gamma2", "herz.herz_norm"):
        calls = spans[key]["calls"]
        m[f"{key}.iters_reported"] = (counts[f"{key}.iters_reported"], "iters_budget")
        m[f"{key}.converged_frac"] = (
            counts[f"{key}.converged"] / calls if calls else 0.0, "ratio")
    m["multipliers.cb_norm_ladder.iters_reported"] = (
        counts["multipliers.cb_norm_ladder.iters_reported"], "iters_budget")
    m["kernel.flops_computed"] = (counts["kernel.flops_computed"], "flop_computed")
    m["kernel.bytes_computed"] = (counts["kernel.bytes_computed"], "byte_computed")
    return m


def attributed_ms(summary: dict) -> float:
    """Time covered by named spans: the sum of all self times."""
    return sum(row["self_ms"] for row in summary["spans"].values())
