"""Outside-in span tracer for the fieldprobe layers.

`Tracer.install` replaces every public function and method of the layer
modules with a wrapper that records a span, and rebinds the names other
package modules imported (`trainer.voxelize` is `ingest.voxelize`). The
program itself is not edited. The probing layer is found by its role, the
first layer of every `nn.Network`, not by its class, so it is traced the
same way wherever its class lives.

Spans stay in memory, one stack per thread, because the training
pipeline builds views on worker threads. A worker's outermost span is
charged to the innermost main-thread span that encloses it in time, so the
time the main thread waits for its workers is not counted as its own.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import threading
import time
import types

LAYERS = ("ingest", "field", "probing", "nn", "trainer", "synthetic")

# properties traced besides plain functions and methods
PROPERTIES = {("Field3D", "gradients")}

# calls the training loop makes to build one sample's input view
VIEW_CALLS = {"trainer.FieldCache.field_for", "trainer.ShapeDataset.shape",
              "trainer.build_field", "ingest.sample_perturbation",
              "ingest.apply_perturbation", "ingest.voxelize"}

# positions in a span record: [name, phase, parent, start, end]
_START, _END = 3, 4


class Tracer:
    def __init__(self):
        self.phase = ""
        self.windows = []           # (phase, start, end) on the main thread
        self._main = threading.get_ident()
        self._local = threading.local()
        self._threads = []          # (thread ident, span records)
        self._lock = threading.Lock()
        self._patches = []          # (owner, attribute, original)
        self._hooks = {}            # span name -> fn(args, result)
        # bytes of the fields the training cache handed out, by field id
        self.cached_value_bytes = {}
        self.cached_gradient_bytes = {}

    # ---- recording ----------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "records"):
            local.records, local.stack = [], []
            with self._lock:
                self._threads.append((threading.get_ident(), local.records))
        return local.records, local.stack

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            records, stack = tracer._thread_state()
            record = [name, tracer.phase, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(records))
            records.append(record)
            record[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = time.perf_counter()
                stack.pop()
            hook = tracer._hooks.get(name)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextlib.contextmanager
    def phase_of(self, phase):
        self.phase = phase
        start = time.perf_counter()
        try:
            yield
        finally:
            self.windows.append((phase, start, time.perf_counter()))
            self.phase = ""

    # ---- installing ---------------------------------------------------

    def _patch(self, owner, attribute, value):
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def _wrap_class(self, layer, cls):
        for attribute, value in list(vars(cls).items()):
            if attribute.startswith("_"):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attribute)
            if isinstance(value, types.FunctionType):
                self._patch(cls, attribute, self.wrap(name, value))
            elif isinstance(value, staticmethod):
                self._patch(cls, attribute,
                            staticmethod(self.wrap(name, value.__func__)))
            elif isinstance(value, classmethod):
                self._patch(cls, attribute,
                            classmethod(self.wrap(name, value.__func__)))
            elif isinstance(value, property) and \
                    (cls.__name__, attribute) in PROPERTIES:
                self._patch(cls, attribute,
                            property(self.wrap(name, value.fget)))

    def install(self, package="fieldprobe"):
        modules = {layer: importlib.import_module(package + "." + layer)
                   for layer in LAYERS}
        wrapped = {}  # id(original function) -> (original, wrapper)
        for layer, module in modules.items():
            for attribute, value in list(vars(module).items()):
                if attribute.startswith("_") or \
                        getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    wrapped[id(value)] = (
                        value, self.wrap("%s.%s" % (layer, attribute), value))
                elif isinstance(value, type):
                    self._wrap_class(layer, value)
        for module in [m for n, m in sys.modules.items()
                       if n == package or n.startswith(package + ".")]:
            for attribute, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attribute, hit[1])
        self._hook_network(modules["nn"].Network)
        self._hooks["trainer.FieldCache.field_for"] = self._saw_cached_field
        self._hooks["field.Field3D.gradients"] = self._saw_gradients

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _hook_network(self, network_class):
        tracer = self
        original = vars(network_class)["__init__"]

        def __init__(net, *args, **kwargs):
            original(net, *args, **kwargs)
            tracer._mark_probing(net.layers[0])

        self._patch(network_class, "__init__", __init__)

    def _mark_probing(self, layer):
        """Trace the first layer's forward and backward as the probing
        layer, bypassing the class-level wrappers so its self time is
        charged to `probing` whichever module defines it."""
        for method in ("forward", "backward"):
            fn = getattr(type(layer), method)
            fn = getattr(fn, "__wrapped__", fn)
            setattr(layer, method,
                    self.wrap("probing." + method, fn.__get__(layer)))

    def _saw_cached_field(self, args, field):
        if self.phase == "train":
            self.cached_value_bytes.setdefault(id(field), field.values.nbytes)

    def _saw_gradients(self, args, gradients):
        key = id(args[0])
        if self.phase == "train" and key in self.cached_value_bytes:
            self.cached_gradient_bytes.setdefault(key, gradients.nbytes)

    # ---- summarizing --------------------------------------------------

    def spans(self):
        """Flat span list: (name, phase, parent, start, end, thread), with
        worker-thread roots attached to the enclosing main-thread span."""
        flat = []
        for ident, records in list(self._threads):
            base = len(flat)
            for name, phase, parent, start, end in records:
                flat.append([name, phase, base + parent if parent >= 0 else -1,
                             start, end, ident])
        main = sorted((i for i, s in enumerate(flat) if s[5] == self._main),
                      key=lambda i: flat[i][3])
        roots = sorted((i for i, s in enumerate(flat)
                        if s[5] != self._main and s[2] < 0),
                       key=lambda i: flat[i][3])
        open_spans, j = [], 0
        for root in roots:
            start, end = flat[root][3], flat[root][4]
            while j < len(main) and flat[main[j]][3] <= start:
                while open_spans and flat[open_spans[-1]][4] < flat[main[j]][3]:
                    open_spans.pop()
                open_spans.append(main[j])
                j += 1
            for candidate in reversed(open_spans):
                if flat[candidate][4] >= end:
                    flat[root][2] = candidate
                    break
        return flat

    def traced_seconds(self):
        return sum(end - start for _, start, end in self.windows)


def self_times(flat):
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in flat]
    for span in flat:
        if span[2] >= 0:
            children[span[2]].append((span[3], span[4]))
    result = []
    for span, kids in zip(flat, children):
        start, end = span[3], span[4]
        covered, reach = 0.0, start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def span_cost(calls=20000, trials=5):
    """Seconds one traced call adds over a plain call, median of trials."""
    probe = Tracer()

    def noop():
        return None

    traced = probe.wrap("calibrate", noop)
    costs = []
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append(max(time.perf_counter() - start - plain, 0.0) / calls)
        del probe._local.records[:]
    return statistics.median(costs)


def layer_metrics(tracer):
    """Per-layer metrics from a finished trace: name -> (value, unit)."""
    flat = tracer.spans()
    own = self_times(flat)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    total_ms = {}
    for span, self_s in zip(flat, own):
        layer_self[span[0].split(".", 1)[0]] += self_s
        total_ms[span[0]] = total_ms.get(span[0], 0.0) + (span[4] - span[3]) * 1e3
    busy = sum(layer_self.values())

    def ms(*names):
        return sum(total_ms.get(name, 0.0) for name in names)

    def head_ms(method):
        """The nn layer classes' own `method` spans, without Network's."""
        return sum(value for name, value in total_ms.items()
                   if name.startswith("nn.") and name.endswith("." + method)
                   and name.count(".") == 2
                   and name != "nn.Network." + method)

    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (layer_self[layer], "s")
        metrics[layer + ".share"] = (layer_self[layer] / busy if busy else 0.0,
                                     "ratio")

    # view building: calls made by train() itself or by its pipeline
    # workers, which are charged to it
    train_span = {i for i, s in enumerate(flat) if s[0] == "trainer.train"}
    view_ms = sum((s[4] - s[3]) * 1e3 for s in flat
                  if s[0] in VIEW_CALLS and s[2] in train_span)
    train_busy_ms = sum(own[i] for i, s in enumerate(flat)
                        if s[1] == "train") * 1e3

    # a field_for call built the field, loaded it from disk, or hit memory
    field_for = {i for i, s in enumerate(flat)
                 if s[0] == "trainer.FieldCache.field_for"}
    builds, loads = set(), set()
    for span in flat:
        if span[0] not in ("ingest.voxelize", "field.load_field"):
            continue
        parent = span[2]
        while parent >= 0 and parent not in field_for:
            parent = flat[parent][2]
        if parent >= 0:
            (builds if span[0] == "ingest.voxelize" else loads).add(parent)
    calls = len(field_for)

    metrics.update({
        "ingest.parse_ms": (ms("ingest.load_shape"), "ms"),
        "ingest.voxelize_ms": (ms("ingest.voxelize"), "ms"),
        "ingest.perturb_ms": (ms("ingest.sample_perturbation",
                                 "ingest.apply_perturbation"), "ms"),
        "field.edt_ms": (ms("field.distance_field"), "ms"),
        "field.normals_ms": (ms("field.normal_field"), "ms"),
        "field.gradients_ms": (ms("field.Field3D.gradients"), "ms"),
        "field.sample_ms": (ms("field.sample_field"), "ms"),
        "field.load_ms": (ms("field.load_field"), "ms"),
        "field.save_ms": (ms("field.save_field"), "ms"),
        "probing.forward_ms": (ms("probing.forward"), "ms"),
        "probing.backward_ms": (ms("probing.backward"), "ms"),
        "nn.forward_ms": (head_ms("forward"), "ms"),
        "nn.backward_ms": (head_ms("backward"), "ms"),
        "nn.loss_ms": (ms("nn.softmax_cross_entropy"), "ms"),
        "nn.sgd_ms": (ms("nn.Sgd.step", "nn.Sgd.zero_grads"), "ms"),
        "trainer.view_ms": (view_ms, "ms"),
        "trainer.view_share": (view_ms / train_busy_ms if train_busy_ms
                               else 0.0, "ratio"),
        "trainer.cache_hit_ratio": ((calls - len(builds)) / calls if calls
                                    else 0.0, "ratio"),
        "trainer.cache_builds": (len(builds), "count"),
        "trainer.cache_disk_loads": (len(loads), "count"),
        "trainer.cache_bytes": (sum(tracer.cached_value_bytes.values())
                                + sum(tracer.cached_gradient_bytes.values()),
                                "bytes"),
        "trainer.ckpt_ms": (ms("trainer.save_checkpoint"), "ms"),
        "synthetic.generate_s": (ms("synthetic.generate_synthetic") / 1e3, "s"),
    })
    return metrics, len(flat)
