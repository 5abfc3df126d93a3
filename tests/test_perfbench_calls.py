"""The benchmark's calls into ipcnn, checked without running the benchmark.

``perfbench/workloads.py`` and ``perfbench/tracing.py`` call ipcnn's public
functions by name and keyword, and a traced run binds ``forward_batch``'s
arguments by parameter name.  A name or keyword the package no longer has
fails every benchmark run of the workloads that reach it; this test reads
both files with ``ast`` and makes it fail here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from ipcnn import hybrid
from ipcnn.analog import AnalogFaultModel
from ipcnn.network import NetworkModel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("workloads.py", "tracing.py")

# Receivers that are not imported by name: tracing.py takes the ``hybrid``
# module as a parameter, ``model`` is always the network and ``faults`` a
# setup's fault model.
RECEIVERS = {"hybrid": hybrid, "model": NetworkModel,
             "faults": AnalogFaultModel}


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def imported_names(tree: ast.Module) -> dict:
    """What each ``from ipcnn... import`` in ``tree`` binds its name to."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "ipcnn":
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    obj = importlib.import_module(
                        f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(module, alias.name)
                names[alias.asname or alias.name] = obj
    return names


def receiver(node, names: dict):
    """The ipcnn object an expression names (``x``, ``a.x`` by ``x``)."""
    key = (node.id if isinstance(node, ast.Name)
           else node.attr if isinstance(node, ast.Attribute) else None)
    return names.get(key)


def binds(target, call: ast.Call, is_method: bool) -> None:
    """Bind the call's keywords, and its positional arguments unless one
    is starred, to ``target``'s signature; raises TypeError if they do
    not bind."""
    signature = inspect.signature(target)
    args = [] if any(isinstance(a, ast.Starred) for a in call.args) \
        else [None] * len(call.args)
    if is_method:
        args.insert(0, None)  # self
    kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
    signature.bind_partial(*args, **kwargs)


def calls_into_ipcnn(name: str):
    """(line, text, target, call, is_method) per call the file makes to an
    ipcnn function, class or method, and (line, text, owner, attribute)
    per ipcnn module attribute it reads and per method it calls that the
    class lacks."""
    tree = parse(name)
    names = {**RECEIVERS, **imported_names(tree)}
    found, reads = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = receiver(node.value, names)
            if inspect.ismodule(owner):
                reads.append((node.lineno, ast.unparse(node), owner,
                              node.attr))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = receiver(func.value, names)
            if owner is None:
                continue
            if not hasattr(owner, func.attr):
                # a module's attributes are all read above
                if inspect.isclass(owner):
                    reads.append((node.lineno, ast.unparse(func), owner,
                                  func.attr))
                continue
            found.append((node.lineno, ast.unparse(node),
                          getattr(owner, func.attr), node,
                          inspect.isclass(owner)))
        elif isinstance(func, ast.Name) and func.id in names:
            found.append((node.lineno, ast.unparse(node), names[func.id],
                          node, False))
        elif isinstance(func, ast.Name) and func.id == "replace" \
                and node.args:
            # dataclasses.replace: its keywords are the dataclass's fields
            owner = receiver(node.args[0], names)
            if inspect.isclass(owner):
                call = ast.Call(func=func, args=[], keywords=node.keywords)
                found.append((node.lineno, ast.unparse(node), owner, call,
                              False))
    return found, reads


@pytest.mark.parametrize("name", FILES)
def test_module_attributes_exist(name):
    _, reads = calls_into_ipcnn(name)
    assert reads
    missing = [f"{name}:{line}: {text}" for line, text, owner, attr in reads
               if not hasattr(owner, attr)]
    assert missing == []


@pytest.mark.parametrize("name", FILES)
def test_calls_bind(name):
    found, _ = calls_into_ipcnn(name)
    assert found
    unbound = []
    for line, text, target, call, is_method in found:
        try:
            binds(target, call, is_method)
        except TypeError as exc:
            unbound.append(f"{name}:{line}: {text}: {exc}")
    assert unbound == []


def test_traced_spans_and_arguments_exist():
    # MODULE_SPANS names (module, attribute) pairs that a traced run wraps,
    # and the forward_batch wrappers read its arguments by name
    tree = parse("tracing.py")
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and node.targets[0].id == "MODULE_SPANS")
    missing = [(module, attr) for module, attr, _ in spans if not hasattr(
        importlib.import_module(f"ipcnn.{module}"), attr)]
    assert missing == []
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and (ast.unparse(node.value) == "params"
                 or ast.unparse(node.value).endswith(".arguments"))}
    assert read == {"images", "spec", "rng"}
    assert read <= set(inspect.signature(hybrid.forward_batch).parameters)
