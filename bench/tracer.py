"""Spans around the package's public functions, installed from outside.

The package's modules bind each other's functions by name (``from .geom
import strict_feasible``), so a wrapper must replace the function object in
every ``tropstiefel.*`` namespace that holds it, not only where it is
defined.  Only the public names listed as targets are touched; a target that
no longer exists is skipped, so the benchmark keeps working when the package
drops or renames private helpers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "tropstiefel"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    size: int = 0  # sum of the ``size`` of the results, for targets that define one


class Tracer:
    """Counts calls and measures total and self time of wrapped functions.

    ``targets`` holds ``(span, module, attr)`` triples: ``attr`` names a
    module-level function or ``Class.method`` of ``<package>.<module>``.
    Several targets may share one span name; their figures add up.
    ``scopes`` names spans that own the calls made beneath them: a call is
    counted in ``scoped[(scope, span)]`` for the nearest enclosing scope.
    ``sizes`` maps a span name to a function of the wrapped call's result.
    A ``DomainError`` is counted once, in ``errors`` of the module whose
    wrapped call it leaves first.
    """

    def __init__(self, targets, scopes=(), sizes=None, package=PACKAGE):
        self.package = package
        self.targets = list(targets)
        self.scopes = frozenset(scopes)
        self.sizes = dict(sizes or {})
        self.stats = {}
        self.scoped = {}
        self.errors = {}
        self._stack = []  # [span, start, child seconds] per open call
        self._restore = []
        self._last_error = None

    # -- installation -----------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {}
        for name in {"core"} | {module for _, module, _ in self.targets}:
            try:
                mods[name] = importlib.import_module(f"{self.package}.{name}")
            except ImportError:
                continue
        domain_error = getattr(mods.get("core"), "DomainError", ())
        namespaces = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for span, module, attr in self.targets:
            mod = mods.get(module)
            if mod is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if not callable(original):
                    continue
                wrapper = self._wrap(span, module, original, domain_error)
                setattr(owner, method, wrapper)
                self._restore.append((owner, method, original))
                continue
            original = getattr(mod, attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(span, module, original, domain_error)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._restore.append((ns, key, original))
        return self

    def uninstall(self):
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ------------------------------------------------------------

    def _wrap(self, span, module, fn, domain_error):
        stats = self.stats.setdefault(span, SpanStats())
        size_of = self.sizes.get(span)
        stack = self._stack
        scopes = self.scopes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if scopes:
                for frame in reversed(stack):
                    if frame[0] in scopes:
                        key = (frame[0], span)
                        self.scoped[key] = self.scoped.get(key, 0) + 1
                        break
            frame = [span, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except domain_error as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[module] = self.errors.get(module, 0) + 1
                raise
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[2]
            if size_of is not None:
                stats.size += size_of(result)
            return result

        return wrapper

    def get(self, span):
        return self.stats.get(span, SpanStats())
