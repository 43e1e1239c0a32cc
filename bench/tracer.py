"""Per-layer tracing of semlog from outside the package.

`Tracer.install()` wraps the public functions of each measured module and a
few hot methods, in every module that holds a binding to them (`preservation`
and `cli` hold their own `evaluate`, for instance), and `uninstall()` puts the
originals back.  Spans (name, start, end, parent, job) are kept in flat
arrays while the jobs run and are turned into per-layer metrics, or written
out, afterwards.

A span's self time is its duration minus that of its child spans.  Calls to
the hottest leaves (`free_vars`, `absorbs`, semiring add/mul/leq) are counted
but not timed, and a few hot helpers that no metric reads are left alone;
their cost lands in the caller's self time.  A recursive call
of a function that is already on the span stack is folded into the outer
span.  The `lattices` module is not measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "semlog"
MODULES = (
    "formulas",
    "parser",
    "semirings",
    "interpretations",
    "evaluation",
    "polynomials",
    "provenance",
    "games",
    "preservation",
    "cli",
)

# Counted, never timed: called millions of times from inside other layers.
COUNT_ONLY = {"formulas.free_vars", "polynomials.absorbs"}
# Not wrapped: hot helpers that no metric reads; a wrapper would only add cost.
UNWRAPPED = {
    "formulas.children",
    "games.resolve_args",
    "polynomials.lit_var",
    "polynomials.var_sort_key",
    "polynomials.format_var",
}

# Methods that carry a layer's work but are not module-level functions.
METHODS = (
    ("interpretations", "Interpretation", "__init__"),
    ("interpretations", "Interpretation", "restrict"),
    ("polynomials", "AbsorptivePoly", "mul"),
    ("polynomials", "AbsorptivePoly", "add"),
    ("polynomials", "NatPoly", "mul"),
    ("polynomials", "NatPoly", "add"),
)
SEMIRING_OPS = ("add", "mul", "leq")

JOB = "bench.job"


class _TimedIterator:
    """Times each `next()` of a generator as one span and counts items."""

    __slots__ = ("_it", "_nid", "_tracer")

    def __init__(self, it, nid, tracer):
        self._it, self._nid, self._tracer = it, nid, tracer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        idx = tracer._open(self._nid)
        try:
            item = next(self._it)
        finally:
            tracer._close(idx, self._nid)
        tracer.items[self._nid] += 1
        return item


class Tracer:
    def __init__(self):
        self.names = []  # span name id -> "layer.function"
        self.name_ids = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.stack = []
        self.job = -1
        self.calls = Counter()  # name -> calls, recursive ones included
        self.items = Counter()  # name id -> items yielded
        self.stats = Counter()  # values read from results
        self.peak_monomials = 0
        self._depth = Counter()
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _nid(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job_of.append(self.job)
        self.end.append(0.0)
        self.stack.append(idx)
        self._depth[nid] += 1
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx, nid):
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self._depth[nid] -= 1

    @contextlib.contextmanager
    def job_span(self, jid):
        """Marks one job; every span inside it carries jid."""
        nid = self._nid(JOB)
        self.job = jid
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx, nid)
            self.job = -1

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name, on_result=None):
        nid = self._nid(name)
        calls, depth = self.calls, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if depth[nid]:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _generator_wrapper(self, fn, name):
        nid = self._nid(name)
        calls, depth = self.calls, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if depth[nid]:
                return fn(*args, **kwargs)
            return _TimedIterator(fn(*args, **kwargs), nid, self)

        return wrapper

    def _count_wrapper(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks --------------------------------------------------------

    def _on_verify(self, args, kwargs, result):
        self.stats["preservation.verify_checked"] += result.checked
        if any(self.names[self.kind[i]].startswith("preservation.rewrite_sigma1_")
               for i in self.stack):
            self.stats["preservation.combine_attempts"] += 1

    def _on_rewrite(self, args, kwargs, result):
        self.stats["preservation.rewrites_ok"] += bool(result.ok)

    def _on_tree(self, args, kwargs, result):
        self.stats["games.tree_nodes"] += result.node_count

    def _on_abs_mul(self, args, kwargs, result):
        a, b = args
        self.stats["polynomials.mul_attempted"] += len(a.monomials) * len(b.monomials)
        self.stats["polynomials.mul_kept"] += len(result.monomials)
        self._on_poly(args, kwargs, result)

    def _on_poly(self, args, kwargs, result):
        size = len(getattr(result, "monomials", None) or getattr(result, "terms", ()))
        if size > self.peak_monomials:
            self.peak_monomials = size

    HOOKS = {
        "preservation.verify_equivalent": "_on_verify",
        "preservation.rewrite_sigma1_strict": "_on_rewrite",
        "preservation.rewrite_sigma1_lattice": "_on_rewrite",
        "games.build_game_tree": "_on_tree",
        "polynomials.AbsorptivePoly.mul": "_on_abs_mul",
        "polynomials.AbsorptivePoly.add": "_on_poly",
        "polynomials.NatPoly.mul": "_on_poly",
        "polynomials.NatPoly.add": "_on_poly",
    }

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            return self._count_wrapper(fn, name)
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(fn, name)
        hook = self.HOOKS.get(name)
        return self._span_wrapper(fn, name, getattr(self, hook) if hook else None)

    # -- install / uninstall ---------------------------------------------------

    def _modules(self):
        """Every loaded module of the package: the ones that hold bindings."""
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (not attr.startswith("_") and name not in UNWRAPPED
                        and inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(obj, name))
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, fn, self._wrap(fn, f"{layer}.{cls_name}.{meth}"))
        semiring = modules["semirings"].Semiring
        for obj in vars(modules["semirings"]).values():
            if inspect.isclass(obj) and issubclass(obj, semiring):
                for op in SEMIRING_OPS:
                    fn = obj.__dict__.get(op)
                    if inspect.isfunction(fn):
                        self._patch(obj, op, fn, self._count_wrapper(fn, f"semirings.{op}"))
        return self

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def spans(self):
        """(name, start, end, parent, job) rows, in opening order."""
        names = self.names
        return zip((names[k] for k in self.kind), self.start, self.end, self.parent, self.job_of)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for name, start, end, parent, job in self.spans():
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")

    def totals(self):
        """Per span name: (inclusive seconds, self seconds)."""
        n = len(self.kind)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        incl, self_s = Counter(), Counter()
        for i in range(n):
            name = self.names[self.kind[i]]
            d = self.end[i] - self.start[i]
            incl[name] += d
            self_s[name] += d - child[i]
        return incl, self_s

    def layer_metrics(self, wall_s):
        """The per-layer metrics of the traced pass whose wall time is wall_s."""
        incl, self_by_name = self.totals()
        layer_self = Counter()
        for name, s in self_by_name.items():
            layer_self[name.split(".", 1)[0]] += s
        roots = sum(self.end[i] - self.start[i] for i in range(len(self.kind))
                    if self.parent[i] < 0)
        calls, stats, items = self.calls, self.stats, self.items

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        evaluate_calls = calls["evaluation.evaluate"]
        enumerated = items[self.name_ids.get("interpretations.enumerate_interpretations", -1)]
        enum_s = incl["interpretations.enumerate_interpretations"]
        m = {
            "evaluation.calls": evaluate_calls,
            "evaluation.self_s": layer_self["evaluation"],
            "evaluation.us_per_call": per(incl["evaluation.evaluate"], evaluate_calls, 1e6),
            "interpretations.enumerated": enumerated,
            "interpretations.enum_s": enum_s,
            "interpretations.enum_us_per_item": per(enum_s, enumerated, 1e6),
            "interpretations.init_calls": calls["interpretations.Interpretation.__init__"],
            "interpretations.init_s": incl["interpretations.Interpretation.__init__"],
            "interpretations.restrict_calls": calls["interpretations.Interpretation.restrict"],
            "interpretations.self_s": layer_self["interpretations"],
            "formulas.free_vars_calls": calls["formulas.free_vars"],
            "formulas.transform_s": layer_self["formulas"],
            "parser.parse_s": incl["parser.parse"],
            "parser.self_s": layer_self["parser"],
            "semirings.add_calls": calls["semirings.add"],
            "semirings.mul_calls": calls["semirings.mul"],
            "semirings.leq_calls": calls["semirings.leq"],
            "polynomials.mul_calls": calls["polynomials.AbsorptivePoly.mul"]
            + calls["polynomials.NatPoly.mul"],
            "polynomials.mul_s": incl["polynomials.AbsorptivePoly.mul"]
            + incl["polynomials.NatPoly.mul"],
            "polynomials.add_calls": calls["polynomials.AbsorptivePoly.add"]
            + calls["polynomials.NatPoly.add"],
            "polynomials.add_s": incl["polynomials.AbsorptivePoly.add"]
            + incl["polynomials.NatPoly.add"],
            "polynomials.absorbs_calls": calls["polynomials.absorbs"],
            "polynomials.peak_monomials": self.peak_monomials,
            "polynomials.kept_ratio": per(stats["polynomials.mul_kept"],
                                          stats["polynomials.mul_attempted"]),
            "polynomials.self_s": layer_self["polynomials"],
            "provenance.pi_n_s": incl["provenance.pi_n"],
            "provenance.self_s": layer_self["provenance"],
            "games.tree_nodes": stats["games.tree_nodes"],
            "games.build_s": incl["games.build_game_tree"],
            "games.strategies": items[self.name_ids.get("games.enumerate_strategies", -1)],
            "games.enum_s": incl["games.enumerate_strategies"],
            "games.eval_strategy_calls": calls["games.eval_strategy"],
            "games.optimal_s": incl["games.optimal"],
            "games.self_s": layer_self["games"],
            "preservation.gate_s": incl["preservation.check_preservation"],
            "preservation.probe_s": incl["preservation.is_eventually_trivial"],
            "preservation.trivial_at_calls": calls["preservation.is_trivial_at"],
            "preservation.verify_s": incl["preservation.verify_equivalent"],
            "preservation.verify_checked": stats["preservation.verify_checked"],
            "preservation.combine_attempts": stats["preservation.combine_attempts"],
            "preservation.combine_accept_ratio": per(stats["preservation.rewrites_ok"],
                                                     stats["preservation.combine_attempts"]),
            "preservation.existential_optimal_s": incl["preservation.has_existential_optimal"],
            "preservation.self_s": layer_self["preservation"],
            "cli.self_s": layer_self["cli"],
            "bench.self_s": layer_self["bench"],
            "trace.outside_s": wall_s - roots,
            "trace.spans": len(self.kind),
        }
        return m


def snapshot():
    """Identity of every callable attribute of the package's modules and of
    the classes they define, to show that a traced run left nothing patched."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in vars(mod).items():
            if callable(obj):
                out[(name, attr)] = id(obj)
            if inspect.isclass(obj) and obj.__module__ == name:
                for key, val in vars(obj).items():
                    if callable(val):
                        out[(name, attr, key)] = id(val)
    return out
