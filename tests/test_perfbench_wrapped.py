"""The benchmark's traced runs wrap program functions by name and read their
argument names; a rename must fail here, not only in a traced benchmark run.

perfbench/traced.py is read, never changed, and its install() is not called.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _load_traced(source: str):
    """Run traced.py's top level in a fresh module, writing no bytecode cache."""
    module = types.ModuleType("perfbench_traced")
    module.__file__ = str(TRACED)
    exec(compile(source, str(TRACED), "exec"), module.__dict__)
    return module


def _argument_keys(reader, functions) -> set[str]:
    """String keys subscripted on the reader's first parameter (the bound arguments)."""
    if isinstance(reader, ast.Name):
        reader = functions[reader.id]
    if not isinstance(reader, (ast.Lambda, ast.FunctionDef)):
        return set()
    arguments = reader.args.args[0].arg
    return {
        node.slice.value
        for node in ast.walk(reader)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name) and node.value.id == arguments
        and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str)
    }


def _wrapped_entries():
    source = TRACED.read_text(encoding="utf-8")
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (listing,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)]
    readers = [_argument_keys(entry.elts[4], functions) for entry in listing.elts]
    wrapped = _load_traced(source).WRAPPED
    assert len(readers) == len(wrapped)
    return [(*entry[:3], keys) for entry, keys in zip(wrapped, readers)]


ENTRIES = _wrapped_entries()


@pytest.mark.parametrize("module_name,owner_name,attr,keys", ENTRIES,
                         ids=[f"{m}.{o or ''}.{a}" for m, o, a, _ in ENTRIES])
def test_wrapped_target_resolves_with_the_argument_names_read(module_name, owner_name, attr,
                                                               keys):
    module = importlib.import_module(module_name)
    if owner_name is None:
        target = getattr(module, attr)
    else:
        owner = getattr(module, owner_name)
        target = owner.__dict__[attr]
        if isinstance(target, classmethod):
            target = target.__func__
    assert callable(target)
    parameters = inspect.signature(target).parameters
    assert keys <= set(parameters), f"{attr} lacks {sorted(keys - set(parameters))}"


def test_argument_readers_are_found():
    read = {(m, o, a): keys for m, o, a, keys in ENTRIES}
    assert read[("aiblob.store", "VectorStore", "top_k")] == {"self", "exclude"}
    assert read[("aiblob.store", "VectorStore", "load")] == {"directory"}
    assert read[("aiblob.llm", "Orchestrator", "score_batch")] == {
        "self", "sentences", "batch_size"}
