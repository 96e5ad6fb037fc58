"""Boundary tracer for rookorder, installed from outside the package.

A traced function is wrapped only where *another* module binds it (for
example ``rookorder.poset.ppr_leq`` or ``rookorder.order.length``) and in
the benchmark's own call table.  Calls inside the defining module, such
as ``length`` -> ``star_weight``, stay untraced, which keeps the tracer's
overhead off the hottest inner loops.

Spans are kept in memory as ``(label, start, end, parent)`` tuples and
folded into per-label call counts and self times by :meth:`Tracer.collect`.
A span's self time is its duration minus the durations of its children.
"""

import functools
import importlib
import time

TRACED = {
    "elements": ("enumerate_elements", "to_matrix"),
    "length": ("length",),
    "order": ("deodhar_leq", "deodhar_leq_gamma", "ppr_leq", "ppr_raises", "covers_of"),
    "oracle": ("oracle_length",),
    "poset": ("verify", "build_hasse", "export_json", "hasse_from_json", "interval"),
    "cli": ("main",),
}

LABELS = tuple(f"{home}.{name}" for home, names in TRACED.items() for name in names)

# enumerate_elements returns a generator; its work happens while the caller
# iterates.  The wrapper consumes it inside the span so the span covers it.
_GENERATORS = {"elements.enumerate_elements"}


def untraced_api() -> dict:
    """The benchmark's call table: label -> the real rookorder function.

    Modules are resolved with import_module because the package attribute
    ``rookorder.length`` is the function, not the module.
    """
    api = {}
    for home, names in TRACED.items():
        module = importlib.import_module(f"rookorder.{home}")
        for name in names:
            api[f"{home}.{name}"] = getattr(module, name)
    return api


class Tracer:
    """Installs span-recording wrappers at module boundaries.

    ``api`` is the benchmark's call table; install() swaps its entries for
    the wrappers as well, so the benchmark's own calls are spans too.
    """

    def __init__(self, api: dict):
        self.api = api
        self.spans: list = []
        self._stack: list = []
        self._sites = []  # (namespace, key, original, wrapper)
        modules = {m: importlib.import_module(f"rookorder.{m}") for m in TRACED}
        for label, original in list(api.items()):
            home, name = label.split(".")
            wrapper = self._wrap(label, original)
            for m, module in modules.items():
                if m != home and getattr(module, name, None) is original:
                    self._sites.append((vars(module), name, original, wrapper))
            self._sites.append((api, label, original, wrapper))

    def _wrap(self, label, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        call = fn
        if label in _GENERATORS:
            def call(*args, **kwargs):
                return iter(list(fn(*args, **kwargs)))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent)

        return traced

    def install(self) -> None:
        for namespace, key, _, wrapper in self._sites:
            namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original, _ in self._sites:
            namespace[key] = original

    def collect(self) -> tuple[dict, float]:
        """Fold and clear the recorded spans.

        Returns ``({label: [calls, self_s]}, root_s)``, where root_s is the
        summed duration of the spans without a parent, which equals the
        summed self time of all spans.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {label: [0, 0.0] for label in self.api}
        root_s = 0.0
        for i, (label, start, end, parent) in enumerate(self.spans):
            entry = totals[label]
            entry[0] += 1
            entry[1] += (end - start) - child[i]
            if parent < 0:
                root_s += end - start
        self.spans.clear()
        return totals, root_s
