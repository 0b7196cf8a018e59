"""Span and count tracing of ptspec from outside, by wrapping its functions.

Each layer is one ptspec module.  install() replaces every public function
of each layer, wherever a module or the package namespace holds it, with a
wrapper that records one span: function, parent span, query, start, end (in
process CPU time, like the end-to-end metrics) and the running count of q(z)
evaluations at both ends.  q(z) is counted by
wrapping ModelSpec.q and the closures ModelSpec.q_callable returns.  Spans
stay in flat in-memory arrays until the benchmark ends; summary() derives
self times and counts from them and save() writes them out.

A few private functions are wrapped as well because the solvers reach the
condition and the Newton iterations only through them (PRIVATE_EXTRAS).
"""

import functools
import time
from array import array

import numpy as np

#: Layer name -> module path inside the package.
LAYERS = {
    "special": "special",
    "quadrature": "_quadrature",
    "geometry": "geometry",
    "action": "action",
    "asymptotic": "asymptotic",
    "shooting": "shooting",
    "verify": "verify",
    "cli": "cli",
}

PRIVATE_EXTRAS = {
    "asymptotic": ("_condition_parts", "_newton_real", "_newton_complex"),
}


def _own_functions(module, extras):
    for name, obj in vars(module).items():
        if name.startswith("_") and name not in extras:
            continue
        if isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # function id -> "layer.function"
        self.layer_of: list[int] = []       # function id -> index into LAYERS
        self.fn = array("i")
        self.parent = array("q")
        self.query = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.q0 = array("q")
        self.q1 = array("q")
        self.stack = [-1]
        self.q_count = [0]
        self.current_query = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, fid):
        fn_a, parent_a, query_a = self.fn, self.parent, self.query
        t0_a, t1_a, q0_a, q1_a = self.t0, self.t1, self.q0, self.q1
        stack, q_count, clock, tracer = self.stack, self.q_count, time.process_time_ns, self

        def traced(*args, **kwargs):
            idx = len(fn_a)
            fn_a.append(fid)
            parent_a.append(stack[-1])
            query_a.append(tracer.current_query)
            t1_a.append(0)
            q1_a.append(0)
            q0_a.append(q_count[0])
            stack.append(idx)
            t0_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1_a[idx] = clock()
                q1_a[idx] = q_count[0]
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, package) -> None:
        modules = {layer: getattr(package, mod) for layer, mod in LAYERS.items()}
        replaced = {}
        for li, (layer, module) in enumerate(modules.items()):
            for name, obj in _own_functions(module, PRIVATE_EXTRAS.get(layer, ())):
                fid = len(self.names)
                self.names.append(f"{layer}.{name}")
                self.layer_of.append(li)
                replaced[id(obj)] = (obj, self._wrap(obj, fid))
        for holder in [package, *modules.values()]:
            for name, obj in list(vars(holder).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(holder, name, hit[1])
        spec = modules["geometry"].ModelSpec
        q_count = self.q_count
        plain_q, plain_callable = spec.q, spec.q_callable

        def q(self_, z):
            q_count[0] += 1
            return plain_q(self_, z)

        def q_callable(self_):
            inner = plain_callable(self_)

            def counted(z):
                q_count[0] += 1
                return inner(z)

            return counted

        self._patch(spec, "q", q)
        self._patch(spec, "q_callable", q_callable)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.frombuffer(getattr(self, k), dtype=getattr(self, k).typecode)
                for k in ("fn", "parent", "query", "t0", "t1", "q0", "q1")}

    def summary(self) -> dict:
        """Per-function and per-layer totals over every recorded span.

        self time and self q-evaluations are a span's own minus what its
        child spans cover.  'calls_under' counts calls by (parent function,
        function) pair.
        """
        a = self.arrays()
        n_fn = len(self.names)
        dur = (a["t1"] - a["t0"]).astype(np.float64) * 1e-9
        qev = (a["q1"] - a["q0"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        kids = a["parent"][has_parent]
        child_dur = np.bincount(kids, weights=dur[has_parent], minlength=len(dur))
        child_q = np.bincount(kids, weights=qev[has_parent], minlength=len(dur))
        self_dur = dur - child_dur
        self_q = qev - child_q
        layer = np.asarray(self.layer_of, dtype=np.int64)[a["fn"]]
        n_layers = len(LAYERS)
        parent_fn = np.where(has_parent, a["fn"][np.maximum(a["parent"], 0)], -1)
        pairs = {}
        pair_keys, pair_counts = np.unique(parent_fn * n_fn + a["fn"], return_counts=True)
        for key, cnt in zip(pair_keys.tolist(), pair_counts.tolist()):
            pf, f = divmod(key, n_fn)
            pairs[(self.names[pf] if pf >= 0 else None, self.names[f])] = cnt
        return {
            "calls": dict(zip(self.names, np.bincount(a["fn"], minlength=n_fn).tolist())),
            "incl_s": dict(zip(self.names, np.bincount(a["fn"], weights=dur, minlength=n_fn).tolist())),
            "layer_self_s": dict(zip(LAYERS, np.bincount(layer, weights=self_dur, minlength=n_layers).tolist())),
            "layer_self_q": dict(zip(LAYERS, np.bincount(layer, weights=self_q, minlength=n_layers).tolist())),
            "calls_under": pairs,
            "spans": len(dur),
        }

    def save(self, path, spans: int) -> None:
        """Write the first `spans` spans: function names, layers and one
        array per span field (times in ns since an arbitrary origin)."""
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(list(LAYERS)),
                            layer_of=np.asarray(self.layer_of),
                            **{k: v[:spans] for k, v in self.arrays().items()})
