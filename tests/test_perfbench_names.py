"""The program names perfbench's span tracer depends on still exist.

perfbench/spans.py names spans after the module and class that define a
function ("trainer.FieldCache.field_for") and reads its per-layer
metrics from those names. A rename or a move to another module leaves the
benchmark running but silently zeroes the metrics that read the old name,
so every such name must resolve to a function the tracer wraps.
"""

import ast
import importlib.util
import inspect
import os
import re

import pytest

from fieldprobe import trainer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def layer_metric_names(spans):
    """Span names `layer_metrics` reads: its string constants that start
    with a layer, other than the metric names it writes (dict keys); a
    trailing dot, as in a prefix test, is dropped."""
    tree = ast.parse(inspect.getsource(spans.layer_metrics))
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key in node.keys}
    pattern = re.compile(r"(%s)\.[\w.]*$" % "|".join(spans.LAYERS))
    return {node.value.rstrip(".") for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in keys and pattern.match(node.value)}


def assert_traced(name):
    """`name` is a module, class, or a function or property that the
    installed tracer wraps under exactly this span name."""
    layer, *path = name.split(".")
    owner = importlib.import_module("fieldprobe." + layer)
    if layer == "probing" and path in (["forward"], ["backward"]):
        # the probing layer is found by its role, the first layer of a
        # network, and traced on the instance
        net, _, _ = trainer.build_model(trainer.TrainConfig(classes=2))
        assert path[0] in vars(net.layers[0]), name
        return
    for part in path:
        assert part in vars(owner), name
        owner = vars(owner)[part]
    if isinstance(owner, property):
        owner = owner.fget
    if inspect.ismodule(owner) or inspect.isclass(owner):
        return
    original = getattr(owner, "__wrapped__", None)
    assert original is not None, "%s is not traced" % name
    assert original.__module__ == "fieldprobe." + layer, name
    assert original.__qualname__ == ".".join(path), name


def test_view_calls_resolve(spans, tracer):
    assert spans.VIEW_CALLS
    for name in sorted(spans.VIEW_CALLS):
        assert_traced(name)


def test_hooks_resolve(spans, tracer):
    assert {"trainer.FieldCache.field_for",
            "field.Field3D.gradients"} <= set(tracer._hooks)
    for name in tracer._hooks:
        assert_traced(name)


def test_layer_metric_names_resolve(spans, tracer):
    names = layer_metric_names(spans)
    assert {"trainer.train", "trainer.FieldCache.field_for",
            "ingest.voxelize", "field.load_field", "probing.forward",
            "nn.Sgd.step"} <= names
    for name in sorted(names):
        assert_traced(name)


def test_build_model_takes_the_config_alone():
    cfg = trainer.TrainConfig(resolution=16, classes=2)
    net, bank, probing = trainer.build_model(cfg)
    assert net.layers[0] is probing and probing.bank is bank
    assert bank.filter_count == cfg.init_config.filter_count
