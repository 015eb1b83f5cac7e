"""Span tracer that wraps the package from outside.

``Tracer.install`` replaces every public function of every package module,
every binding of those functions that another module made with
``from ... import``, every function held in a module-level table (such as
``cli.CLOSED_FORMS``), and the constructors of the package's classes, with a
wrapper that records a span: name, start, end and the index of the span
that was open when it started. ``numpy``'s ``leggauss`` as bound in
``oracle`` gets a counting wrapper instead, so its time stays in the
quadrature that called it. ``install`` then rescans the modules and raises
if any such binding is still unwrapped, so a layer cannot be missed
silently. ``uninstall`` restores every binding.

Spans live in typed arrays in memory and are written once, by ``save``.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "linalg", "measurement", "analytics", "oracle", "reversal")

MC = ("oracle.estimate_information", "oracle.estimate_fidelity", "oracle.estimate_reversibility")
QUAD = ("oracle.quadrature_information", "oracle.quadrature_fidelity",
        "oracle.quadrature_reversibility")
CLOSED_FORMS = tuple(
    "analytics." + n
    for n in ("information_gain", "optimal_fidelity", "fidelity_closed", "fidelity_of_operator",
              "reversibility", "efficiency_fidelity", "efficiency_reversibility")
)

#: Spans that keep their own self time. Any other span's self time goes to
#: the nearest enclosing span of the same layer, so private helpers and
#: secondary public functions (``sample_bloch_angles``, ``cmd_verify``)
#: count towards the call that needed them.
OWNERS = frozenset(
    MC + QUAD + CLOSED_FORMS + (
        "analytics.tradeoff_record", "analytics.averaged_quantities", "linalg.svd2",
        "linalg.su2_params", "measurement.MeasurementOperator", "measurement.MeasurementSet",
        "reversal.optimal_reversing", "reversal.simulate_reversal", "cli.main",
    )
)

#: Strength ratios above this lie past the widest series seam of the
#: closed forms (the fidelity efficiency's, 1 - 1e-2).
SERIES_LAM = 0.99

_MARK = "__perfbench_span__"


class TraceGap(AssertionError):
    """A binding the workload can reach was left unwrapped."""


class Tracer:
    def __init__(self, modules):
        self.modules = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        self.names: list = []
        self._ids: dict = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _span(self, fn, name, hook=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_ix, parent, start, end, stack = self.name_ix, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def _counted(self, fn, name, inside):
        counts, names, name_ix, stack = self.counts, self.names, self.name_ix, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if stack[-1] < 0 or names[name_ix[stack[-1]]] not in inside:
                counts[name + ".outside"] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, name)
        return wrapper

    def _hook(self, name):
        c = self.counts
        if name in MC:
            def hook(args, kwargs, est):
                c["oracle.mc.samples"] += est.samples
            return hook
        if name == "reversal.simulate_reversal":
            def hook(args, kwargs, stats):
                c["reversal.simulate.trials"] += stats.trials
                c["reversal.simulate.successes"] += stats.successes
            return hook
        if name in CLOSED_FORMS:
            def hook(args, kwargs, value):
                first = args[0] if args else next(iter(kwargs.values()))
                lam = getattr(first, "lam", first)
                c["analytics.lam_evals"] += 1
                c["analytics.series_evals"] += bool(SERIES_LAM < lam < 1.0)
            return hook
        return None

    # -- installation ----------------------------------------------------

    def _set(self, target, key, value):
        self._undo.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def _table(self, obj, label, wrapped):
        """Copy of a dict, list or tuple with every function in it wrapped,
        at any depth; ``obj`` itself when it holds none."""
        if isinstance(obj, types.FunctionType):
            return wrapped.get(obj) or self._span(obj, label)
        if isinstance(obj, dict):
            new = {k: self._table(v, f"{label}[{k}]", wrapped) for k, v in obj.items()}
            changed = any(new[k] is not v for k, v in obj.items())
        elif isinstance(obj, (list, tuple)):
            new = type(obj)(self._table(v, f"{label}[{i}]", wrapped) for i, v in enumerate(obj))
            changed = any(a is not b for a, b in zip(new, obj))
        else:
            return obj
        return new if changed else obj

    def install(self):
        wrapped = {}
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._span(obj, name, self._hook(name))
                elif isinstance(obj, type):
                    meth = "__post_init__" if dataclasses.is_dataclass(obj) else "__init__"
                    fn = obj.__dict__.get(meth)
                    if isinstance(fn, types.FunctionType):
                        self._set(obj, meth, self._span(fn, f"{layer}.{attr}"))
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType):
                    if obj in wrapped:
                        self._set(mod, attr, wrapped[obj])
                elif not attr.startswith("__"):
                    new = self._table(obj, f"{layer}.{attr}", wrapped)
                    if new is not obj:
                        self._set(mod, attr, new)
        oracle = self.modules.get("oracle")
        if oracle is not None and hasattr(oracle, "leggauss"):
            self._set(oracle, "leggauss", self._counted(oracle.leggauss, "oracle.leggauss", QUAD))
        self.check_installed()

    def check_installed(self):
        """Raise ``TraceGap`` for any reachable binding left unwrapped."""

        def unwrapped(obj, label):
            if isinstance(obj, types.FunctionType):
                return [] if hasattr(obj, _MARK) else [label]
            items = (obj.items() if isinstance(obj, dict)
                     else enumerate(obj) if isinstance(obj, (list, tuple)) else ())
            return [m for k, v in items for m in unwrapped(v, f"{label}[{k}]")]

        missed = []
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType):
                    home = obj.__module__ or ""
                    if home.startswith("qmtradeoff.") and not obj.__name__.startswith("_"):
                        missed += unwrapped(obj, f"{layer}.{attr}")
                elif isinstance(obj, type) and (obj.__module__ or "").startswith("qmtradeoff."):
                    meth = "__post_init__" if dataclasses.is_dataclass(obj) else "__init__"
                    fn = obj.__dict__.get(meth)
                    if isinstance(fn, types.FunctionType):
                        missed += unwrapped(fn, f"{layer}.{attr}.{meth}")
                elif not attr.startswith("__"):
                    missed += unwrapped(obj, f"{layer}.{attr}")
        if missed:
            raise TraceGap("unwrapped bindings: " + ", ".join(sorted(set(missed))))

    def uninstall(self):
        for target, key, old in reversed(self._undo):
            setattr(target, key, old)
        self._undo.clear()

    # -- analysis --------------------------------------------------------

    def spans(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_ix": np.frombuffer(self.name_ix, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez(path, **self.spans())

    def span_counts(self) -> Counter:
        """Number of spans per name."""
        ids = np.bincount(np.frombuffer(self.name_ix, dtype=np.int32), minlength=len(self.names))
        return Counter(dict(zip(self.names, ids.tolist())))

    def self_times(self) -> dict:
        """Self time per owner span name and per layer, in seconds."""
        s = self.spans()
        n, names = len(s["start"]), self.names
        dur = s["end"] - s["start"]
        par = s["parent"]
        child = np.zeros(n)
        np.add.at(child, par[par >= 0], dur[par >= 0])
        own = dur - child
        layer_of = [nm.split(".", 1)[0] for nm in names]
        ix = s["name_ix"].tolist()
        owner = ix[:]
        for i, p in enumerate(par.tolist()):  # parents precede their children
            if p >= 0 and names[ix[i]] not in OWNERS and layer_of[ix[p]] == layer_of[ix[i]]:
                owner[i] = owner[p]
        by_owner = np.bincount(owner, weights=own, minlength=len(names)) if n else []
        by_name = np.bincount(ix, weights=own, minlength=len(names)) if n else []
        layer_time: Counter = Counter()
        for name, t in zip(names, by_name):
            layer_time[name.split(".", 1)[0]] += float(t)
        return {"owner": Counter(dict(zip(names, map(float, by_owner)))), "layer": layer_time}
