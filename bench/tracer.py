"""In-memory span tracer for the benchmark's traced runs.

The tracer times calls into roadkit's layers from outside: it replaces
function objects in the namespaces where callers look them up and restores
them afterwards, so no file under ``src/`` changes. Two kinds of function are
wrapped in every ``roadkit.*`` module:

* every function a module imports from another roadkit module, patched in the
  importing module (``roadkit.evaluation.iou3d``, ``roadkit.cli.parse_labels``,
  ``roadkit.synth.project_box``, ...);
* every public (no leading underscore) function a module defines, patched in
  its own namespace, so calls inside one module (``evaluate`` ->
  ``match_frame``) are seen too. ``roadkit.cli.main`` is one of these.

Functions added to roadkit later are picked up by the same rules. Methods and
private helpers are not wrapped; their time is self time of the caller.
``pathlib.Path.read_text`` and ``write_text`` are wrapped as well, to measure
the CLI's file I/O.

A span carries its function, start, end and parent; parents are tracked per
thread, because ``roadkit eval --jobs N`` parses detection files in threads.
A span started in a pool thread has no parent; the time the caller spends
waiting for the pool is self time of the caller's span. Spans are kept in
per-thread arrays and summarised (and optionally saved) after the run.
"""

from __future__ import annotations

import functools
import importlib
import pathlib
import pkgutil
import threading
import time
import types
from array import array

import numpy as np

PACKAGE = "roadkit"

# Functions that parse text into records, and functions that write records
# to text. Their payload is (records, characters); the formats are ASCII, so
# characters are bytes.
PARSERS = ("formats.parse_labels", "formats.load_manifest", "formats.parse_calibration")
WRITERS = ("formats.write_labels", "formats.dump_manifest", "formats.dump_calibration")
FILE_IO = ("pathlib.read_text", "pathlib.write_text")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _annotations(manifest) -> int:
    return sum(len(frame.annotations) for frame in manifest.frames)


# Per-function payload recorded on each span, for the derived metrics. Each
# extractor takes (args, kwargs, result) and keeps only what the summary needs.
PAYLOADS = {
    "geometry.iou3d": lambda a, k, r: (_arg(a, k, 0, "a"), _arg(a, k, 1, "b")),
    "datasets.assign_difficulty": lambda a, k, r: _arg(a, k, 0, "annotation"),
    "evaluation.evaluate": lambda a, k, r: len(_arg(a, k, 0, "manifest").frames),
    "synth.generate_corpus": lambda a, k, r: (_arg(a, k, 1, "n_frames"), _annotations(r[0])),
    "formats.parse_labels": lambda a, k, r: (len(r), len(_arg(a, k, 0, "text"))),
    "formats.load_manifest": lambda a, k, r: (_annotations(r), len(_arg(a, k, 0, "text"))),
    "formats.parse_calibration": lambda a, k, r: (0, len(_arg(a, k, 0, "text"))),
    "formats.write_labels": lambda a, k, r: (len(_arg(a, k, 0, "records")), len(r)),
    "formats.dump_manifest": lambda a, k, r: (_annotations(_arg(a, k, 0, "manifest")), len(r)),
    "formats.dump_calibration": lambda a, k, r: (0, len(r)),
}


class _ThreadLog:
    """Spans recorded by one thread, in the order they started."""

    __slots__ = ("thread", "stack", "name", "start", "end", "parent", "payload")

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.payload: dict[int, object] = {}


class Tracer:
    """Wraps roadkit's functions and records a span per call while active."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; the tracer starts inactive."""
        package = importlib.import_module(PACKAGE)
        modules = [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                imported = home != module.__name__
                if not imported and attr.startswith("_"):
                    continue
                if id(obj) not in wrappers:
                    name = f"{home[len(PACKAGE) + 1:]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._patch(module, attr, wrappers[id(obj)])
        for method in ("read_text", "write_text"):
            original = getattr(pathlib.Path, method)
            self._patch(pathlib.Path, method, self._wrap(original, f"pathlib.{method}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def lookup(self, name: str) -> int:
        """The id spans of `name` carry, or -1 if nothing of that name was wrapped."""
        return self._name_ids.get(name, -1)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(len(self._logs))
            self._logs.append(log)  # list.append is atomic under the GIL
            self._local.log = log
        return log

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        payload = PAYLOADS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            log = tracer._log()
            index = len(log.name)
            log.name.append(name_id)
            log.parent.append(log.stack[-1] if log.stack else -1)
            log.end.append(0.0)
            log.stack.append(index)
            log.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[index] = clock()
                log.stack.pop()
            if payload is not None:
                log.payload[index] = payload(args, kwargs, result)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as columns; parent indexes are global row numbers."""
        names, starts, ends, parents, threads = [], [], [], [], []
        offset = 0
        for log in self._logs:
            parent = np.array(log.parent, dtype=np.int64)
            parents.append(np.where(parent >= 0, parent + offset, -1))
            names.append(np.array(log.name, dtype=np.int32))
            starts.append(np.array(log.start, dtype=np.float64))
            ends.append(np.array(log.end, dtype=np.float64))
            threads.append(np.full(len(log.name), log.thread, dtype=np.int32))
            offset += len(log.name)

        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        return {
            "name": cat(names, np.int32),
            "start": cat(starts, np.float64),
            "end": cat(ends, np.float64),
            "parent": cat(parents, np.int64),
            "thread": cat(threads, np.int32),
        }

    def payloads(self, name: str) -> list[tuple[int, object]]:
        """(global span row, payload) for every recorded span of `name`."""
        out = []
        offset = 0
        name_id = self.lookup(name)
        for log in self._logs:
            for index, value in log.payload.items():
                if log.name[index] == name_id:
                    out.append((offset + index, value))
            offset += len(log.name)
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def function_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """calls, inclusive seconds and self seconds per traced function.

    Self time is a span's duration minus the durations of its child spans.
    """
    spans = tracer.spans()
    duration = spans["end"] - spans["start"]
    child = np.zeros_like(duration)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], duration[has_parent])
    self_time = duration - child
    n = len(tracer.names)
    calls = np.bincount(spans["name"], minlength=n)
    total = np.bincount(spans["name"], weights=duration, minlength=n)
    own = np.bincount(spans["name"], weights=self_time, minlength=n)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        for i, name in enumerate(tracer.names)
    }
