"""Span recorder for the traced run, and the public calls it wraps.

A span is one call across a layer boundary: the layer's name, its start
and end times, and the span that was open when it began. Spans are recorded
only from the benchmark's side, by wrapping the public functions where
their callers look them up (`monoxp.enumeration.solve`, ...), so nothing in
the program changes. They stay in flat arrays of numbers, which the garbage
collector never scans; hundreds of thousands of span objects would make it
slow the traced run down further.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import monoxp.cli
import monoxp.enumeration
from monoxp import ClassifierOracle, enumerate_explanations, find_axp, find_cxp

LAYERS = ("cli", "specfile", "enumeration", "explainer", "satcore", "classifiers")


class Recorder:
    """Keeps spans in memory until the run ends; single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._open: list[int] = []
        self._points: set = set()
        self.distinct_points = 0

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    def instrument(self, oracle: ClassifierOracle) -> ClassifierOracle:
        """Record a `classifiers` span, and the point asked, on every classify."""
        inner = oracle.classify
        begin, end, points = self.begin, self.end, self._points

        def classify(point):
            points.add(point.values)
            idx = begin("classifiers")
            try:
                return inner(point)
            finally:
                end(idx)

        oracle.classify = classify
        return oracle

    def end_instance(self) -> None:
        """Close the group of points that `classifiers.unique_frac` counts as one instance's."""
        self.distinct_points += len(self._points)
        self._points.clear()

    def self_times(self) -> list[float]:
        return self_times(self.parents, self.starts, self.ends)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for idx, (name, parent, start, end) in enumerate(zip(self.names, self.parents, self.starts, self.ends)):
                handle.write(f'{{"id": {idx}, "layer": "{name}", "parent": {parent}, "start": {start!r}, "end": {end!r}}}\n')


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = [end - start for start, end in zip(starts, ends)]
    for parent, kids in children.items():
        lo_bound, hi_bound = starts[parent], ends[parent]
        covered = 0.0
        reach = lo_bound
        for kid in sorted(kids, key=lambda k: starts[k]):
            lo = max(starts[kid], reach)
            hi = min(ends[kid], hi_bound)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[parent] -= covered
    return out


@dataclass(frozen=True)
class Api:
    """The public calls a workload makes, traced or not."""

    enumerate_explanations: Callable
    find_axp: Callable
    find_cxp: Callable
    cli_main: Callable
    instrument: Callable[[ClassifierOracle], ClassifierOracle]
    traced: bool


UNTRACED = Api(enumerate_explanations, find_axp, find_cxp, monoxp.cli.main, lambda oracle: oracle, False)


@contextmanager
def patched(module, **replacements) -> Iterator[None]:
    """Rebind module attributes for the duration of the block."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


@contextmanager
def traced_api(rec: Recorder) -> Iterator[Api]:
    """Wrap every layer boundary in spans while the block runs."""
    explainer_axp = rec.wrap("explainer", find_axp)
    explainer_cxp = rec.wrap("explainer", find_cxp)
    enumerate_spanned = rec.wrap("enumeration", enumerate_explanations)
    build_spanned = rec.wrap("specfile", monoxp.cli.build_oracle)

    def enumeration(*args, **kwargs):
        try:
            return enumerate_spanned(*args, **kwargs)
        finally:
            rec.end_instance()

    def build_oracle(spec):
        return rec.instrument(build_spanned(spec))

    with patched(monoxp.enumeration, solve=rec.wrap("satcore", monoxp.enumeration.solve),
                 find_axp=explainer_axp, find_cxp=explainer_cxp), \
            patched(monoxp.cli, enumerate_explanations=enumeration, build_oracle=build_oracle):
        yield Api(enumeration, explainer_axp, explainer_cxp, rec.wrap("cli", monoxp.cli.main), rec.instrument, True)
