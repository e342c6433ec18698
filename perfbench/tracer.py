"""Span tracer that times irsbandit from outside the package.

The benchmark wraps public functions and methods of the package at run
time; nothing under src/ knows about it. Each wrapped call is folded into
per-name counters (calls, total ns, self ns) instead of being kept as a
span, because a default sweep cell makes about a million wrapped calls.
A stack of open frames gives self time: a call's duration minus the time
its wrapped children took.

A target is "module:attr" or "module:Class.attr". A module-level function
is rebound in every loaded irsbandit module that holds the same object,
because modules import each other's functions by name. A target that no
longer exists is recorded in `absent` and its counters stay at zero.
"""

from __future__ import annotations

import importlib
import sys
import time


class Stat:
    """Aggregated calls into one wrapped target."""

    __slots__ = ("calls", "total_ns", "self_ns", "samples_ns")

    def __init__(self, keep_samples: bool = False):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.samples_ns = [] if keep_samples else None


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._stack = [[0]]  # one frame per open span: [child ns]
        self._undo = []

    def span(self, name, target, *, only_in=None, keep_samples=False, observe=None):
        """Time calls to target under `name`.

        only_in restricts rebinding to one module, to time the calls that
        module makes; observe(args, kwargs, result) runs after the span
        closes, so its cost lands in the caller's self time.
        """
        stat = self.stats.setdefault(name, Stat(keep_samples))
        stack = self._stack
        clock = time.perf_counter_ns

        def make(fn):
            def timed(*args, **kwargs):
                frame = [0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    stat.calls += 1
                    stat.total_ns += dt
                    stat.self_ns += dt - frame[0]
                    if stat.samples_ns is not None:
                        stat.samples_ns.append(dt)
                if observe is not None:
                    observe(args, kwargs, result)
                return result

            return timed

        self._install(name, target, make, only_in)

    def count(self, name, target):
        """Count calls to target without timing them (for hot leaf calls)."""
        stat = self.stats.setdefault(name, Stat())

        def make(fn):
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        self._install(name, target, make, None)

    def uninstall(self):
        """Restore every rebound attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install(self, name, target, make, only_in):
        module_name, _, attr_path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        wrapper = make(original)
        if parents:  # a method: rebind on the class itself
            self._rebind(owner, attr, original, wrapper)
            return
        if only_in is not None:
            modules = [sys.modules[only_in]] if only_in in sys.modules else []
        else:
            modules = [
                m
                for key, m in list(sys.modules.items())
                if key == "irsbandit" or key.startswith("irsbandit.")
            ]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
