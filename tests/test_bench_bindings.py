"""Every program name the benchmark binds resolves in src/, so a deletion that
removes one fails here, not only in a traced benchmark pass."""
import ast
import importlib
import importlib.util
from pathlib import Path

from nterm import _kernels
from nterm.greedy import sigma_profile
from nterm.sequences import Sequence
from nterm.spaces import parse_space

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_spans_and_bindings_resolve():
    tracer = _tracer()
    names = [(mod, attr) for mod, attr, _ in tracer.SPANS] + list(tracer.REQUIRED_BINDINGS)
    missing = [f"{mod}.{attr}" for mod, attr in names
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing


def test_worker_module_attributes_resolve():
    # attributes the worker reads off `from nterm import ...` modules, such as
    # the kernel backend name it records
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    modules = {alias.asname or alias.name: f"nterm.{alias.name}"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "nterm" for alias in node.names}
    used = {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert used
    missing = [f"{mod}.{attr}" for mod, attr in sorted(used)
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing


def test_element_norm_cache_info_resolves():
    # the worker records the element-norm cache's hits and misses
    from nterm import spaces

    assert callable(getattr(spaces._element_norm_cached, "cache_info", None))


def test_exact_lp_sweep_calls_the_traced_kernels(monkeypatch):
    # exact-sweep's coverage rule needs self time in both kernels, and the
    # exact l^p sweep is their only caller
    calls = []
    for name in ("subset_sums", "extrema_by_popcount"):
        real = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    sigma_profile(Sequence({1: 3.0, 2: 2.0, 3: 1.0}), parse_space("lp:2"), method="exact")
    assert calls == ["subset_sums", "extrema_by_popcount"]
