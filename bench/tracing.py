"""Span tracing of grindmon's public functions, from outside the package.

`install` wraps every public function of the layer modules and rebinds it at
every grindmon module attribute that holds it, so calls between modules
(`pipeline` imports `build_matrix` by name) and within a module (`build_matrix`
calls `load_trace` through its module globals) are both recorded.  Spans are
kept in memory as flat arrays (name, parent, start, end) and written out when
the run ends.  A span's self time is its duration minus its children's.

Run as a script, it is a traced `grindmon` command line:

    python3 bench/tracing.py SPANS.npz monitor --model model.json trace.csv
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("traces", "pca", "lda", "monitor", "pipeline", "simulate", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    def extend(self, names, name_id, parent, start, end) -> None:
        """Append spans recorded elsewhere (another process) as top-level spans."""
        offset = len(self)
        remap = [self._intern(str(n)) for n in names]
        self.name_id.extend(remap[int(i)] for i in name_id)
        self.parent.extend(int(p) + offset if p >= 0 else -1 for p in parent)
        self.start.extend(float(t) for t in start)
        self.end.extend(float(t) for t in end)

    def arrays(self):
        return (
            np.asarray(self.names),
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path, **extra) -> None:
        names, name_id, parent, start, end = self.arrays()
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=names, name_id=name_id, parent=parent,
                            start=start, end=end, **extra)

    def self_times(self) -> np.ndarray:
        _, _, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - children

    def select(self, name: str, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Indices of the spans called `name` recorded between span positions lo and hi."""
        if name not in self.names:
            return np.empty(0, dtype=np.int64)
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        return np.nonzero(ids == self.names.index(name))[0] + lo


def install(tracer: Tracer) -> None:
    """Wrap every public function of grindmon's layer modules."""
    import grindmon

    modules = [importlib.import_module(f"grindmon.{m}") for m in LAYERS]
    traced = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                traced[obj] = tracer.wrap(f"{layer}.{name}", obj)
    for mod in (grindmon, *modules):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in traced:
                setattr(mod, name, traced[obj])


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import grindmon.cli

    tracer = Tracer()
    install(tracer)
    try:
        grindmon.cli.main(args=cli_args, prog_name="grindmon")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
