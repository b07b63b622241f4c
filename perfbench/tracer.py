"""Outside-in tracer for ``mvlab``.

``Tracer.install`` wraps every public function of every ``mvlab`` module and
rebinds each reference to it in every ``mvlab.*`` module dict, so calls made
through ``from``-import bindings (``config.make_ball_domain``,
``cli.read_field``, ...) are caught as well as module-attribute calls. It
also wraps four ``Domain`` methods on the class. Nothing under ``src/`` is
edited; ``uninstall`` puts every original back.

Each call records a span (name, start, end, parent, job id) in memory;
``summary`` folds them into per-name call counts, inclusive time and self
time (a span's duration minus its children's), and ``write`` saves them as
JSON lines.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import weakref
from collections import defaultdict

DOMAIN_METHODS = ("points", "sqrt_det_metric", "center_distances", "region_contains")


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, job id, child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.bytes: dict[str, int] = defaultdict(int)
        self._integrated: dict[int, weakref.ref] = {}
        self.integrated_domains = 0
        self._restore: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, 0.0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(index)

    # -- per-call hooks -----------------------------------------------------

    def _note_domain(self, field) -> None:
        domain = field.domain
        seen = self._integrated.get(id(domain))
        if seen is None or seen() is not domain:
            self._integrated[id(domain)] = weakref.ref(domain)
            self.integrated_domains += 1

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "calculus.integrate":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._note_domain(_arg(args, kwargs, 0, "e"))
                part = "full" if _arg(args, kwargs, 1, "subregion") is None else "subregion"
                return tracer.run(f"{name}.{part}", fn, *args, **kwargs)
        elif name == "fieldio.read_field":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.bytes[name] += os.path.getsize(_arg(args, kwargs, 0, "path"))
                return tracer.run(name, fn, *args, **kwargs)
        elif name == "fieldio.write_field" or name.startswith("report.write"):
            index = 1 if name == "fieldio.write_field" else 0
            key = name if name == "fieldio.write_field" else "report.write"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = tracer.run(name, fn, *args, **kwargs)
                tracer.bytes[key] += os.path.getsize(_arg(args, kwargs, index, "path"))
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.run(name, fn, *args, **kwargs)
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self, package: str = "mvlab") -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        wrapped: dict[int, object] = {}
        for module in modules:
            short = module.__name__.removeprefix(package + ".")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for module in modules:
            table = vars(module)
            for attr, obj in list(table.items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._restore.append((table, attr, obj))
                    table[attr] = wrapped[id(obj)]
        domain_cls = sys.modules[package + ".grid"].Domain
        for attr in DOMAIN_METHODS:
            original = domain_cls.__dict__[attr]
            self._restore.append((domain_cls, attr, original))
            setattr(domain_cls, attr, self._wrap(f"grid.Domain.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds ``s``, self seconds."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, start, end, _parent, _job, child in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job, _child in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "job": job}) + "\n")
