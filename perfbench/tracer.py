"""Spans around the calls into each bohrlab layer, recorded from outside
the program.

``Tracer.install`` replaces every public function of the layer modules
(their ``__all__``), ``Majorant.bohr``, ``Report.write`` and ``cli.main``
at every name a caller can look it up by: ``bohrlab.harness.compose`` and
``bohrlab.zoo.compose`` as well as ``bohrlab.series.compose``.
``uninstall`` puts the originals back, so untraced rounds run the
unmodified program.

Spans live in memory in flat arrays (name, start, end, parent, round,
work) and are written out once, at the end.  A span's self time is its
duration minus the durations of its direct children; calls nest on one
thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("opmat", "series", "zoo", "radii", "harness", "cli")


def _op_norms_work(args, kwargs, out):
    return float(np.size(out))


def _poly_eval_work(args, kwargs, out):
    return float(np.size(args[1] if len(args) > 1 else kwargs["r"]))


def _bohr_work(args, kwargs, out):
    return 1.0 if out.certified else 0.0


# Per-span work: matrices normed, radii evaluated, certified intervals.
WORK = {
    "opmat.op_norms": _op_norms_work,
    "radii.radius_poly_eval": _poly_eval_work,
    "series.Majorant.bohr": _bohr_work,
}


class Tracer:
    """Records one span per call of a traced bohrlab function."""

    def __init__(self, bohrlab):
        self.names = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.round = array("i")
        self.work = array("d")
        self.current_round = 0
        self._stack = []
        self._modules = [bohrlab] + [getattr(bohrlab, layer) for layer in LAYERS]
        self._wrappers = {}
        for layer in LAYERS:
            module = getattr(bohrlab, layer)
            for attr in getattr(module, "__all__", ("main",)):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for owner, attr, name in ((bohrlab.series.Majorant, "bohr", "series.Majorant.bohr"),
                                  (bohrlab.harness.Report, "write", "harness.Report.write")):
            self._wrappers[getattr(owner, attr)] = self._wrap(name, getattr(owner, attr))
        self._classes = (bohrlab.series.Majorant, bohrlab.harness.Report)
        self._installed = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        stack = self._stack
        name_id, start, end, parent, rounds, works = (
            self.name_id, self.start, self.end, self.parent, self.round, self.work)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            rounds.append(self.current_round)
            end.append(0.0)
            works.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if work is not None:
                works[i] = work(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for owner in self._modules + list(self._classes):
            for attr, value in list(vars(owner).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(owner, attr, wrapper)
                    self._installed.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    def arrays(self) -> dict:
        """Spans as numpy arrays, with each span's self time in seconds."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "round": np.frombuffer(self.round, dtype=np.int32),
            "parent": parent,
            "dur": dur,
            "self": dur - covered,
            "work": np.frombuffer(self.work),
        }

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV, times in µs from the first span."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("round,name,start_us,end_us,parent,work\n")
            for i in range(len(self.start)):
                fh.write(f"{self.round[i]},{self.names[self.name_id[i]]},"
                         f"{(self.start[i] - origin) * 1e6:.3f},"
                         f"{(self.end[i] - origin) * 1e6:.3f},"
                         f"{self.parent[i]},{self.work[i]:g}\n")
