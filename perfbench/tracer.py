"""Spans around calls into the mvsao layers, recorded from outside.

A target is the dotted name under which a caller looks a function up, for
example `mvsao.estimators.step_crossing_probs` (the estimator module's own
binding of the stochastic_paths function) or
`mvsao.jump_process.JumpPath.endpoint_colors`.  `Tracer.install` replaces
each target by a wrapper that records a span (name, layer, start, end,
parent, and an optional probe of the call) and `Tracer.uninstall` puts the
original objects back.  A target that no longer exists is recorded as
absent and skipped, so a refactor never breaks the untraced benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
import uuid
from dataclasses import dataclass
from typing import Callable

# span layout: [name, layer, start, end, parent index or -1, probe result]
NAME, LAYER, START, END, PARENT, INFO = range(6)


@dataclass(frozen=True)
class Target:
    path: str
    layer: str
    probe: Callable | None = None  # (args, kwargs, result) -> dict


def resolve(path: str):
    """(owner, attribute) for a dotted name, or None when it does not exist.

    The longest importable module prefix is the start; the rest is walked
    by attribute.  The attribute must be defined on its owner itself, so
    restoring it never shadows an inherited one.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if parts[-1] not in vars(owner):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """Collects spans in memory for one run; not thread-safe (workers = 1)."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for target in self.targets:
            found = resolve(target.path)
            if found is None:
                self.absent.append(target.path)
                continue
            owner, attr = found
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, target))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, target: Target):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, layer, probe = target.path, target.layer, target.probe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[INFO] = probe(args, kwargs, out)
            return out

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        pieces = sorted((max(spans[c][START], start), min(spans[c][END], end))
                        for c in children.get(i, ()))
        covered, reach = 0.0, start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out
