"""In-memory span recording around public library functions.

A ``Target`` names a function or method by module and attribute. ``install``
wraps each one it can find and reports the rest as missing, so a later
refactor that renames or deletes a function loses that span, not the run.
A function imported by name into other modules (``from .model import
forward_patch_predictions``) is replaced in every ``tsicl`` module that holds
it, since those references bypass the defining module.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str  # e.g. "tsicl.trainer"
    attr: str  # "train" or "Adam.step"
    span: str  # span name, e.g. "trainer.train"
    name_fn: Callable | None = None  # (args, kwargs) -> span name, chosen per call
    on_call: Callable | None = None  # (tracer, args, kwargs, result) -> None, adds counts
    provides: tuple[str, ...] = ()  # other span names and counters this target yields


class Tracer:
    """Spans as (id, parent id, name, stage, start, end), kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stage = ""
        self.hook_errors: list[str] = []

    def _open(self, name: str) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, self.stage, t0, t1)

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.name_fn(args, kwargs) if target.name_fn else target.span
            sid, parent = tracer._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, t0)
            if target.on_call is not None:
                try:
                    target.on_call(tracer, args, kwargs, result)
                except Exception as exc:  # a count hook must never fail the traced program
                    tracer.hook_errors.append(f"{target.span}: {exc!r}")
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[1] >= 0:
                child[s[1]] += s[5] - s[4]
        out: dict[str, dict] = {}
        for s in self.spans:
            if s is None:
                continue
            entry = out.setdefault(s[2], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            dur = s[5] - s[4]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[s[0]]
            entry["durations"].append(dur)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps({"id": s[0], "parent": s[1], "name": s[2], "stage": s[3],
                                         "start": s[4], "end": s[5]}) + "\n")


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap(noop, Target("", "", "noop"))
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def install(tracer: Tracer, targets: list[Target]) -> tuple[Callable[[], None], list[Target]]:
    """Wrap every target found; return (undo, targets not found)."""
    undo: list[tuple[object, str, object]] = []
    missing: list[Target] = []
    for t in targets:
        try:
            module = importlib.import_module(t.module)
        except ImportError:
            missing.append(t)
            continue
        owner_name, _, attr = t.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if isinstance(owner, type):
            original = vars(owner).get(attr)
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            missing.append(t)
            continue
        wrapped = tracer.wrap(original, t)
        if isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "tsicl" or mod_name.startswith("tsicl."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def restore() -> None:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return restore, missing
