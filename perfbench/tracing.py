"""Run-time span wrappers around porphyry's public functions.

`Tracer.install` finds each listed public function in every porphyry
module namespace that binds it; inside `with tracer:` those bindings are
replaced by wrappers that record a span (name, operation id, parent span,
start, end) or, for the hot helpers listed in COUNTERS, only bump a
counter.  Leaving the block puts every original back.  Spans stay in
memory until `spans_jsonl` writes them out.  A name a later version no
longer has is recorded in `missing` and skipped.  Nothing under the
package's source is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, public name) pairs that get a span, grouped by layer.
SPANNED = {
    "parser": ["parse", "parse_formula", "parse_formulas_infer"],
    "defsys": [
        "validate",
        "unfold",
        "expand_model",
        "dependency_graph",
        "irreducibility_warnings",
    ],
    "semantics": ["bounded_entails"],
    "monadic": ["decide_sat", "decide_entails", "monadic_normal_form"],
    "predicabilia": [
        "classify_formula",
        "generators",
        "proximate_genus",
        "porphyry_tree",
    ],
    "extensional": ["extensions", "check_laminar", "reconstruct"],
    "magma": ["demo_magma", "demo_dsl"],
    "cli": ["main"],
}

# Called per node or per model: a span each would swamp the run.
COUNTERS = {
    "syntax": ["rename_apart", "subst"],
    "semantics": ["evaluate", "enumerate_models"],
}

ENGINE_CALLS = ("monadic.decide_entails", "semantics.bounded_entails")
TOP_PREDICABILIA = (
    "predicabilia.classify_formula",
    "predicabilia.generators",
    "predicabilia.proximate_genus",
)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    def __init__(self):
        self.spans = []  # [name, op, parent, t0, t1, self_s, error, extra]
        self.counts = Counter()
        self.missing = []
        self.op = None
        self._stack = []  # [span index, time covered by children]
        self._patched = []
        self._last_error = None
        self.monadic_k = defaultdict(list)
        self.monadic_keys = set()  # (op, k) pairs already built this op
        self.monadic_reused = 0

    # ------------------------------------------------------------ install

    def install(self, package, counters=True):
        """Find every binding of the listed names and patch them in; later
        `__enter__`/`__exit__` pairs switch the same patches on and off."""
        groups = list(SPANNED.items()) + (list(COUNTERS.items()) if counters else [])
        layers = {}
        for layer, _ in groups:
            try:
                layers[layer] = importlib.import_module(f"{package.__name__}.{layer}")
            except ImportError:
                layers[layer] = None
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for layer, names in groups:
            mod = layers[layer]
            for name in names:
                orig = getattr(mod, name, None) if mod is not None else None
                if not callable(orig):
                    self.missing.append(f"{layer}.{name}")
                    continue
                key = f"{layer}.{name}"
                if name in COUNTERS.get(layer, ()):
                    wrapper = self._counter(key, orig)
                else:
                    wrapper = self._span(key, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patched.append((m, attr, orig, wrapper))
        return self

    def __enter__(self):
        for m, attr, _, wrapper in self._patched:
            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, orig, _ in reversed(self._patched):
            setattr(m, attr, orig)
        return False

    # ----------------------------------------------------------- wrappers

    def _counter(self, key, orig):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _span(self, key, orig):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else None
            index = len(tracer.spans)
            rec = [key, tracer.op, parent, 0.0, 0.0, 0.0, None, None]
            tracer.spans.append(rec)
            tracer._stack.append([index, 0.0])
            result = None
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as exc:
                rec[6] = type(exc).__name__
                # Count an error once, at the innermost span it leaves.
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.counts[f"error.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                rec[3], rec[4] = t0, t1
                if rec[6] is None:
                    rec[7] = tracer._annotate(key, args, kwargs, result, t1 - t0)
                _, covered = tracer._stack.pop()
                rec[5] = (t1 - t0) - covered
                # The parent's self time leaves out this call and the
                # bookkeeping after it.
                if tracer._stack:
                    tracer._stack[-1][1] += time.perf_counter() - t0

        return wrapper

    def _annotate(self, key, args, kwargs, result, seconds):
        """Per-call facts that later derived metrics need."""
        if key == "parser.parse":
            return {"chars": len(_arg(args, kwargs, 0, "text", ""))}
        if key == "defsys.unfold" and result is not None:
            from oracle import from_lib, node_count

            return {"out_nodes": node_count(from_lib(result))}
        if key == "semantics.bounded_entails":
            sig = _arg(args, kwargs, 0, "sig")
            kind = type(result).__name__
            top = result.bound if kind == "HoldsUpTo" else result.model.size
            interps = sum(_count_models(sig, s) for s in range(1, top + 1))
            return {"interpretations": interps, "full": kind == "HoldsUpTo"}
        if key == "monadic.decide_sat":
            from oracle import from_lib, preds_of, walk

            f = from_lib(_arg(args, kwargs, 0, "f"))
            equality = any(g[0] == "eq" for g in walk(f))
            if equality and _arg(args, kwargs, 3, "allow_equality", False):
                return {"exact": False}
            k = len(preds_of(f))
            self.monadic_k[k].append(seconds)
            if (self.op, k) in self.monadic_keys:
                self.monadic_reused += 1
            self.monadic_keys.add((self.op, k))
            return {"exact": True, "k": k, "supports": 1 << (1 << k)}
        if key == "extensional.extensions":
            return {"elements": _arg(args, kwargs, 1, "m").size}
        return None

    # ------------------------------------------------------------- output

    def spans_jsonl(self):
        for name, op, parent, t0, t1, self_s, err, extra in self.spans:
            yield json.dumps(
                {
                    "name": name,
                    "op": op,
                    "parent": parent,
                    "start": t0,
                    "end": t1,
                    "self_s": self_s,
                    "error": err,
                    **(extra or {}),
                },
                separators=(",", ":"),
            )


def _count_models(sig, size):
    """Interpretations of sig on a universe of `size`: computed, not counted."""
    bits = sum(size**arity for _, arity in sig.predicates)
    return (1 << bits) * size ** len(sig.constants)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans and counters of one traced phase."""
    busy = defaultdict(float)
    selft = defaultdict(float)
    calls = Counter()
    layer_self = defaultdict(float)
    extra = defaultdict(float)
    full_busy = full_interps = 0.0
    engine_under_pred = 0
    for name, op, parent, t0, t1, self_s, err, ann in tracer.spans:
        calls[name] += 1
        selft[name] += self_s
        layer_self[name.split(".")[0]] += self_s
        # Busy time counts a call once even when it re-enters itself.
        nested = under_pred = False
        p = parent
        while p is not None:
            pname = tracer.spans[p][0]
            nested = nested or pname == name
            under_pred = under_pred or pname in TOP_PREDICABILIA
            p = tracer.spans[p][2]
        if not nested:
            busy[name] += t1 - t0
        if name in ENGINE_CALLS and under_pred:
            engine_under_pred += 1
        for k, v in (ann or {}).items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                extra[f"{name}.{k}"] += v
        if name == "semantics.bounded_entails" and ann and ann.get("full"):
            full_busy += t1 - t0
            full_interps += ann["interpretations"]

    out = {}
    for layer, names in SPANNED.items():
        for n in names:
            key = f"{layer}.{n}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.busy_ms"] = busy[key] * 1e3
            out[f"{key}.self_ms"] = selft[key] * 1e3
        out[f"{layer}.self_ms"] = layer_self[layer] * 1e3
    for layer, names in COUNTERS.items():
        for n in names:
            out[f"{layer}.{n}.calls"] = tracer.counts[f"{layer}.{n}"]
    chars = extra["parser.parse.chars"]
    out["parser.parse.us_per_char"] = busy["parser.parse"] * 1e6 / chars if chars else 0.0
    out["defsys.unfold.out_nodes"] = int(extra["defsys.unfold.out_nodes"])
    out["semantics.interpretations"] = int(extra["semantics.bounded_entails.interpretations"])
    out["semantics.us_per_interpretation"] = (
        full_busy * 1e6 / full_interps if full_interps else 0.0
    )
    out["semantics.ceiling_errors"] = tracer.counts["error.ResourceCeilingError"]
    for k in range(1, 5):
        samples = sorted(tracer.monadic_k.get(k, []))
        out[f"monadic.decide_sat.k{k}.p50_ms"] = (
            samples[len(samples) // 2] * 1e3 if samples else 0.0
        )
    out["monadic.supports"] = int(extra["monadic.decide_sat.supports"])
    exact_calls = sum(len(v) for v in tracer.monadic_k.values())
    out["monadic.table_reuse_ratio"] = (
        tracer.monadic_reused / exact_calls if exact_calls else 0.0
    )
    pred_ops = sum(calls[n] for n in TOP_PREDICABILIA)
    out["predicabilia.engine_calls_per_op"] = (
        engine_under_pred / pred_ops if pred_ops else 0.0
    )
    ext_s = busy["extensional.extensions"]
    out["extensional.elements_per_s"] = (
        extra["extensional.extensions.elements"] / ext_s if ext_s else 0.0
    )
    return out


# The per-layer metrics the traced run reports, with units; BENCHMARK.json
# lists the same names.  Zero means the workload never reached that code.
PER_LAYER_UNITS = {
    "parser.parse.calls": "count",
    "parser.parse.busy_ms": "ms",
    "parser.parse.us_per_char": "us/char",
    "parser.parse_formula.busy_ms": "ms",
    "parser.self_ms": "ms",
    "syntax.rename_apart.calls": "count",
    "syntax.subst.calls": "count",
    "defsys.validate.calls": "count",
    "defsys.validate.busy_ms": "ms",
    "defsys.unfold.calls": "count",
    "defsys.unfold.busy_ms": "ms",
    "defsys.unfold.out_nodes": "count",
    "defsys.expand_model.busy_ms": "ms",
    "defsys.irreducibility_warnings.busy_ms": "ms",
    "defsys.self_ms": "ms",
    "semantics.bounded_entails.calls": "count",
    "semantics.bounded_entails.busy_ms": "ms",
    "semantics.bounded_entails.self_ms": "ms",
    "semantics.interpretations": "count",
    "semantics.us_per_interpretation": "us",
    "semantics.evaluate.calls": "count",
    "semantics.enumerate_models.calls": "count",
    "semantics.ceiling_errors": "count",
    "semantics.self_ms": "ms",
    "monadic.decide_sat.calls": "count",
    "monadic.decide_sat.busy_ms": "ms",
    **{f"monadic.decide_sat.k{k}.p50_ms": "ms" for k in range(1, 5)},
    "monadic.decide_entails.calls": "count",
    "monadic.decide_entails.busy_ms": "ms",
    "monadic.monadic_normal_form.busy_ms": "ms",
    "monadic.supports": "count",
    "monadic.table_reuse_ratio": "ratio",
    "monadic.self_ms": "ms",
    **{
        f"predicabilia.{n}.{m}": "count" if m == "calls" else "ms"
        for n in ("classify_formula", "generators", "proximate_genus", "porphyry_tree")
        for m in ("calls", "busy_ms", "self_ms")
    },
    "predicabilia.engine_calls_per_op": "ratio",
    "predicabilia.self_ms": "ms",
    "extensional.extensions.busy_ms": "ms",
    "extensional.reconstruct.busy_ms": "ms",
    "extensional.check_laminar.busy_ms": "ms",
    "extensional.elements_per_s": "1/s",
    "extensional.self_ms": "ms",
    "magma.demo_magma.busy_ms": "ms",
    "magma.self_ms": "ms",
    # Time spent in these calls while the inputs were built, which setup_s
    # counts and the traced loop does not see.
    "setup.parser.parse.busy_ms": "ms",
    "setup.magma.demo_magma.busy_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.busy_ms": "ms",
    "cli.self_ms": "ms",
    **{f"cli.{c}.p50_ms": "ms" for c in (
        "check", "tree", "classify", "entail", "entail_bounded", "sat",
        "normalize", "extensions", "reconstruct", "generators", "demo", "proximate",
    )},
    "trace.overhead_ratio": "ratio",
}
