"""Outside-in tracing: wrap named functions at run time and add up their time.

Nothing in the traced program changes. Each hook names the object its caller
looks the function up on (a module, or a class for methods), so the wrapper
is the one the caller actually reaches. A hook whose target no longer exists
is reported as absent and never fails the run.

Calls are not kept one by one: each (function, enclosing phase) pair keeps a
running total of calls, counted units, inclusive time and self time. That
keeps the cost of hot per-step functions bounded and folds them into the
batch-level phase that called them. Self time is a call's duration minus the
durations of the traced calls made inside it.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    units: int = 0
    peak_units: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Hook:
    """`target` is "module" or "module:Class"; `count(args, kwargs, result)`
    returns the units of work one call did (samples, steps, ...)."""

    name: str
    target: str
    attr: str
    count: object = None


class Tracer:
    def __init__(self, phases=(), clock=time.perf_counter):
        self.clock = clock
        self.phases = frozenset(phases)
        self.stats: dict[tuple[str, str], Stat] = {}
        self._stack: list[list[float]] = []  # [start, time spent in traced children]
        self._open_phases: list[str] = []
        self.count_errors: set[str] = set()

    def call(self, name, fn, args, kwargs, count=None):
        phase = self._open_phases[-1] if self._open_phases else ""
        is_phase = name in self.phases
        if is_phase:
            self._open_phases.append(name)
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self.clock() - frame[0]
            self._stack.pop()
            if is_phase:
                self._open_phases.pop()
            if self._stack:
                self._stack[-1][1] += duration
            stat = self.stats.setdefault((name, phase), Stat())
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - frame[1]
        if count is not None:
            try:
                units = int(count(args, kwargs, result))
            except Exception:  # a changed signature must not fail the traced run
                self.count_errors.add(name)
            else:
                stat.units += units
                stat.peak_units = max(stat.peak_units, units)
        return result

    def total(self, name: str, phase: str | None = None) -> Stat:
        """Sum of a function's stats over every phase, or within one phase."""
        out = Stat()
        for (fn_name, fn_phase), stat in self.stats.items():
            if fn_name == name and (phase is None or fn_phase == phase):
                out.calls += stat.calls
                out.units += stat.units
                out.peak_units = max(out.peak_units, stat.peak_units)
                out.total_s += stat.total_s
                out.self_s += stat.self_s
        return out

    def merge(self, rows) -> None:
        """Add stats exported as [name, phase, calls, units, peak, total_s, self_s]."""
        for name, phase, calls, units, peak, total_s, self_s in rows:
            stat = self.stats.setdefault((name, phase), Stat())
            stat.calls += calls
            stat.units += units
            stat.peak_units = max(stat.peak_units, peak)
            stat.total_s += total_s
            stat.self_s += self_s

    def export(self) -> list:
        return [[name, phase, s.calls, s.units, s.peak_units, s.total_s, s.self_s]
                for (name, phase), s in self.stats.items()]

    def self_sum(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, qualname.split(".")):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def install(hooks, tracer: Tracer):
    """Wrap every hook that resolves; returns (absent hook names, restore)."""
    absent, patched = [], []
    for hook in hooks:
        owner = _resolve(hook.target)
        original = getattr(owner, hook.attr, None) if owner is not None else None
        if not callable(original):
            absent.append(hook.name)
            continue

        def wrapper(*args, _fn=original, _hook=hook, **kwargs):
            return tracer.call(_hook.name, _fn, args, kwargs, _hook.count)

        own = hook.attr in vars(owner)  # False for a method inherited by `owner`
        setattr(owner, hook.attr, functools.wraps(original)(wrapper))
        patched.append((owner, hook.attr, original, own))

    def restore():
        for owner, attr, original, own in reversed(patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return absent, restore
