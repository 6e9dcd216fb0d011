"""Spans around every call into the qdrings layers, installed from outside the package.

Each function and method defined in a traced module is replaced by a wrapper
that records a span (name, start, end, parent, op id), and every reference
to the original is rebound: module attributes in every qdrings module,
values of module-level dicts (``suites.SUITE_NAMES``, ``cli._HANDLERS``)
and the default arguments of every function (``oracle.ring_axiom_check``
binds ``product=multiply`` and ``make=make_mult`` at import time).  A
reference that kept the original would charge its time to the caller.

Per-function counts and self times are kept exactly; span records are kept
in memory up to a cap and written out when the run ends.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time
from array import array

LAYERS = ("foundations", "group", "subgroup", "ring", "oracle", "suites", "cli")
_SKIP_METHODS = {"__new__", "__init_subclass__", "__setattr__", "__delattr__", "__getattribute__",
                 "__getattr__", "__class_getitem__"}


class Tracer:
    def __init__(self, span_cap: int):
        self.active = False
        self.op_id = -1
        self.stack: list[list] = []  # frames: [child time, name index, span id]
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.raised: list[int] = []
        self.recursive: list[int] = []  # calls whose parent span is the same function
        self.top_s = 0.0  # time covered by spans without a traced parent
        self.next_span = 0
        self.span_cap = span_cap
        self.spans = (array("q"), array("i"), array("d"), array("d"), array("q"), array("i"))

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.raised.append(0)
        self.recursive.append(0)
        tracer, perf = self, time.perf_counter
        calls, self_s, raised, recursive = self.calls, self.self_s, self.raised, self.recursive
        sid_a, name_a, start_a, end_a, parent_a, op_a = self.spans

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            sid = tracer.next_span
            tracer.next_span = sid + 1
            frame = [0.0, idx, sid]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[0]
                if parent is None:
                    tracer.top_s += dur
                else:
                    parent[0] += dur
                    if parent[1] == idx:
                        recursive[idx] += 1
                if len(sid_a) < tracer.span_cap:
                    sid_a.append(sid)
                    name_a.append(idx)
                    start_a.append(t0)
                    end_a.append(t1)
                    parent_a.append(-1 if parent is None else parent[2])
                    op_a.append(tracer.op_id)

        functools.update_wrapper(traced, fn)
        return traced

    @staticmethod
    def _set(target, attr, value) -> None:
        if isinstance(target, dict):
            target[attr] = value
        else:
            setattr(target, attr, value)

    def install(self, package: str = "qdrings") -> None:
        """Wrap the functions of every traced layer and rebind every reference to them."""
        wrappers: dict[int, object] = {}
        originals: list = []

        def wrapper_for(fn, name):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name)
                originals.append(fn)
            return wrappers[id(fn)]

        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    if issubclass(value, (enum.Enum, BaseException)):
                        continue
                    for mname, member in list(vars(value).items()):
                        if mname in _SKIP_METHODS:
                            continue
                        if isinstance(member, (classmethod, staticmethod)):
                            w = wrapper_for(member.__func__, f"{layer}.{member.__func__.__qualname__}")
                            self._set(value, mname, type(member)(w))
                        elif inspect.isfunction(member):
                            self._set(value, mname, wrapper_for(member, f"{layer}.{member.__qualname__}"))
                elif callable(value) and hasattr(value, "__qualname__"):
                    wrapper_for(value, f"{layer}.{value.__qualname__}")

        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._set(value, key, wrappers[id(item)])
        for fn in originals:
            fn = getattr(fn, "__wrapped__", fn)  # the lru_cache of is_prime keeps its function here
            if getattr(fn, "__defaults__", None):
                self._set(fn, "__defaults__", tuple(wrappers.get(id(v), v) for v in fn.__defaults__))
            if getattr(fn, "__kwdefaults__", None):
                self._set(fn, "__kwdefaults__",
                          {k: wrappers.get(id(v), v) for k, v in fn.__kwdefaults__.items()})

    # -- results ----------------------------------------------------------------

    def stats(self, name: str) -> tuple[int, float, int, int]:
        """(calls, self seconds, raised, recursive calls) of one function, zero if never wrapped."""
        try:
            i = self.names.index(name)
        except ValueError:
            return 0, 0.0, 0, 0
        return self.calls[i], self.self_s[i], self.raised[i], self.recursive[i]

    def layer_totals(self, layer: str) -> tuple[int, float, int]:
        prefix = layer + "."
        idx = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return (sum(self.calls[i] for i in idx), sum(self.self_s[i] for i in idx),
                sum(self.raised[i] for i in idx))

    def write_spans(self, path) -> int:
        """Write the kept spans as tab-separated lines; returns how many were dropped at the cap."""
        sid_a, name_a, start_a, end_a, parent_a, op_a = self.spans
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(sid_a)):
                fh.write(f"{sid_a[i]}\t{self.names[name_a[i]]}\t{start_a[i]:.9f}\t{end_a[i]:.9f}\t"
                         f"{parent_a[i]}\t{op_a[i]}\n")
        return self.next_span - len(sid_a)
