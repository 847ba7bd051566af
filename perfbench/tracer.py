"""Span tracer that wraps the library's public functions from outside.

`Tracer.install()` replaces every public function of the traced modules
with a timing wrapper, under every name it is bound to: a function
imported by name into another module (``fec.core_vertices``,
``birkhoff.choquet_integral``, ``noninvariant.envelope`` ...) is the same
object, so each such alias is rebound to the same wrapper.  Validating
constructors (``__post_init__`` of the library's dataclasses, for example
``UpperProb``) are wrapped on the class, which every alias shares.

Generator functions such as ``space.points`` are left unwrapped: a
wrapper would only time the creation of the generator, so their work is
attributed to the caller's span instead.

Spans are kept in memory in flat arrays (function id, parent span,
start, end) and written out once, at the end, by `dump`.  A layer is the
defining module of the wrapped function; its self time is the sum over
its spans of duration minus the time covered by direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = (
    "cli",
    "space",
    "measure",
    "capacity",
    "polytope",
    "fec",
    "koopman",
    "birkhoff",
    "noninvariant",
    "oracle",
    "generate",
)

# functions whose arguments or results feed a counter: name -> hook(args, result)
_COUNTERS = {
    "polytope.simplex_cut_vertices": (
        ("polytope.rows_in", lambda args, out: len(args[1])),
        ("polytope.vertices_out", lambda args, out: len(out)),
    ),
    "capacity.envelope": (
        ("capacity.envelope.generators_in", lambda args, out: len(args[0])),
    ),
}

# functions whose first argument may be a one-shot iterable; it is listed
# before the call so that its length can be counted
_MATERIALIZE = {"capacity.envelope"}

# lru-cached functions whose cache statistics are reported
CACHED = (
    "capacity.core_vertices",
    "capacity.invariant_core_vertices",
    "measure.subset_sums",
)


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    if not module.startswith("ergocap."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def _is_public_function(obj) -> bool:
    target = getattr(obj, "__wrapped__", obj)
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    if inspect.isgeneratorfunction(target):
        return False
    return not target.__name__.startswith("_")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        self._stack = [-1]

    # ------------------------------------------------------------ wrapping

    def _wrap(self, func, name: str, layer: str):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        hooks = _COUNTERS.get(name, ())
        materialize = name in _MATERIALIZE
        counters = self.counters
        for key, _ in hooks:
            counters[key] = 0
        fids, parents, starts, ends, stack = self.fid, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if materialize:
                args = (list(args[0]),) + args[1:]
            span = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(span)
            try:
                out = func(*args, **kwargs)
            finally:
                stack.pop()
                ends[span] = clock()
            for key, hook in hooks:
                counters[key] += hook(args, out)
            return out

        functools.update_wrapper(wrapper, func)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(func, attr):
                setattr(wrapper, attr, getattr(func, attr))
        return wrapper

    def install(self) -> None:
        """Rebind every public function and validating constructor of the library."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "ergocap" or key.startswith("ergocap.")
        ]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj):
                    self._wrap_class(obj)
                    continue
                layer = _layer_of(obj)
                if layer is None or not _is_public_function(obj):
                    continue
                if id(obj) not in wrappers:
                    name = f"{layer}.{obj.__name__}"
                    self.originals[name] = obj
                    wrappers[id(obj)] = self._wrap(obj, name, layer)
                setattr(mod, attr, wrappers[id(obj)])

    def _wrap_class(self, cls) -> None:
        layer = _layer_of(cls)
        init = vars(cls).get("__post_init__")
        if layer is None or init is None or hasattr(init, "__wrapped__"):
            return
        cls.__post_init__ = self._wrap(init, f"{layer}.{cls.__name__}", layer)

    # ------------------------------------------------------------ results

    def cache_stats(self) -> dict[str, tuple[int, int]]:
        """(hits, lookups) of each reported lru cache."""
        out = {}
        for name in CACHED:
            info = self.originals[name].cache_info()
            out[name] = (info.hits, info.hits + info.misses)
        return out

    def summary(self) -> dict:
        """Per-layer self time and calls, per-function calls, and counters."""
        n = len(self.start)
        child = [0.0] * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        fcalls = [0] * len(self.names)
        root_s = 0.0
        layers, fids = self.layers, self.fid
        for i in range(n):
            f = fids[i]
            dur = ends[i] - starts[i]
            layer = layers[f]
            self_s[layer] += dur - child[i]
            calls[layer] += 1
            fcalls[f] += 1
            if parents[i] < 0:
                root_s += dur
        return {
            "self_s": self_s,
            "calls": calls,
            "function_calls": {name: c for name, c in zip(self.names, fcalls) if c},
            "root_s": root_s,
            "counters": dict(self.counters),
            "spans": n,
        }

    def dump(self, path: str) -> None:
        """Write the names, then the four span arrays in native byte order."""
        with open(path, "wb") as fh:
            header = "\n".join(self.names).encode()
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for arr in (self.fid, self.parent, self.start, self.end):
                fh.write(len(arr).to_bytes(8, "little"))
                arr.tofile(fh)
