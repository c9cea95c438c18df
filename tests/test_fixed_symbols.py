"""The protocol symbols are constants, not settings: no public callable or
dataclass field of the package takes a reserved token, the punctuation
labels, the axiom (the grammar's start) or stop label, the head rules or the
conjunction label.  Nor does any take the parser's share of a word
probability or the number of words a perplexity averages over."""

import dataclasses
import importlib
import inspect
import pkgutil

import tdparse

FORBIDDEN = {
    "end_token", "unk_token", "number_token", "punct_labels", "axiom",
    "stop_label", "head_table", "conj_label", "table", "start", "model_weight", "n_words",
}
# The perfbench harness passes the end token to augment_with_stop.
ALLOWED = {("tdparse.treebank.augment_with_stop", "end_token")}


def _public_members(module):
    """(qualified name, object) of every public function, class and method defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
            for attr, member in vars(obj).items():
                if attr == "__init__" or not attr.startswith("_"):
                    func = getattr(member, "__func__", member)
                    if inspect.isfunction(func):
                        yield f"{module.__name__}.{name}.{attr}", func


def _settings(obj):
    """Names a caller can set: a callable's parameters, a dataclass's fields."""
    if inspect.isclass(obj):
        if dataclasses.is_dataclass(obj):
            yield from (f.name for f in dataclasses.fields(obj))
        return
    yield from inspect.signature(obj).parameters


def test_protocol_symbols_are_not_parameters():
    modules = [importlib.import_module(f"tdparse.{m.name}") for m in pkgutil.iter_modules(tdparse.__path__)]
    assert len(modules) >= 10
    found = [
        f"{qualname}({name})"
        for module in modules
        for qualname, obj in _public_members(module)
        for name in _settings(obj)
        if name in FORBIDDEN and (qualname, name) not in ALLOWED
    ]
    assert found == []
