"""In-memory span tracer installed from outside the traced package.

The tracer wraps every public function and method of the named layer
modules of a package. A wrapped function is re-bound in every module of the
package that imported it under some name, so calls between modules go
through the wrapper too; a name bound only inside a module would otherwise
escape its span.

Each span records its name, start, end, parent span and item id. Spans are
kept in flat arrays while the traced pass runs and written out only at the
end. Self time is a span's duration minus the durations of its direct
children; since the process is single-threaded, children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Optional

import numpy as np

# Dunder methods that do layer work (construction, arithmetic, field
# evaluation); the rest (repr, eq, hash) are bookkeeping and stay unwrapped.
WRAPPED_DUNDERS = frozenset(
    {"__init__", "__call__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__getitem__"}
)

Observer = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self, package: str, layers: tuple[str, ...], observers: dict[str, Observer]):
        self.package = package
        self.layers = layers
        self.observers = observers
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = False
        self.item_id = -1

    # -- installation ------------------------------------------------------

    def _layer_modules(self) -> list:
        return [
            sys.modules[f"{self.package}.{layer}"]
            for layer in self.layers
            if f"{self.package}.{layer}" in sys.modules
        ]

    def _package_modules(self) -> list:
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layers' public callables and re-bind every import of them."""
        wrapped: dict[int, Callable] = {}
        for mod in self._layer_modules():
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in self._package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))

    def uninstall(self) -> None:
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        observer: Optional[Observer] = self.observers.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.name_id)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.item.append(tracer.item_id)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    # -- analysis ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.name_id)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: call count and inclusive seconds; per layer: self seconds."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        calls = np.bincount(a["name_id"], minlength=n_names)
        inclusive = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        self_by_name = np.bincount(a["name_id"], weights=self_time, minlength=n_names)
        layer_self: dict[str, float] = {layer: 0.0 for layer in self.layers}
        for nid, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += float(self_by_name[nid])
        return (
            {name: int(calls[i]) for i, name in enumerate(self.names)},
            {name: float(inclusive[i]) for i, name in enumerate(self.names)},
            layer_self,
        )

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
