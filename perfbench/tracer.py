"""In-memory span tracer that wraps codedunlearn's public functions from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded ``codedunlearn`` module that holds it (so ``ensemble.ridge_solve``
and ``coding.binary_rank`` are caught as well as ``numerics.*``), and patches
``CodedStore`` methods on the class.  Spans and counters stay in memory until
``dump()`` writes them; nothing in the package is edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path

# (module, attribute) for every traced function; "CodedStore.x" is a method.
TRACED = (
    ("dataset", "gen_synthetic"),
    ("dataset", "load_csv"),
    ("dataset", "write_csv"),
    ("dataset", "split"),
    ("dataset", "normalize"),
    ("numerics", "ridge_solve"),
    ("numerics", "binary_rank"),
    ("coding", "encode"),
    ("coding", "rand_matrix"),
    ("coding", "rand_matrix_minimal"),
    ("coding", "CodedStore.rebuild_coded_row"),
    ("coding", "CodedStore.surviving_shard"),
    ("coding", "CodedStore.rebuild_coded_shard"),
    ("projections", "make_projection"),
    ("projections", "project"),
    ("ensemble", "learn"),
    ("ensemble", "unlearn"),
    ("ensemble", "predict"),
    ("ensemble", "verify_perfect_unlearning"),
    ("session", "save_session"),
    ("session", "load_session"),
    ("bench", "run_tradeoff"),
)

SPAN_NAMES = tuple(f"{mod}.{attr.split('.')[-1]}" for mod, attr in TRACED) \
    + ("cli.startup", "cli.main")

COUNTERS = (
    "ensemble.learners_retrained",
    "coding.generators_returned",
    "session.bytes_written",
    "session.bytes_read",
    "session.files_written",
)


def _io_counters() -> dict[str, int]:
    """This process's rchar/wchar so far, and the bytes of this read, which
    the next reading will include in rchar."""
    text = Path("/proc/self/io").read_text()
    vals = dict(line.split(": ") for line in text.splitlines())
    return {"rchar": int(vals["rchar"]), "wchar": int(vals["wchar"]),
            "own": len(text)}


def _dir_state(directory: Path) -> dict[str, tuple[int, int]]:
    return {str(p): (p.stat().st_mtime_ns, p.stat().st_size)
            for p in directory.rglob("*") if p.is_file()}


class Tracer:
    """Spans of one traced process: (name, start, end, parent, request)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.request = -1
        self._stack: list[int] = []    # indices of the open spans
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def span(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. process start-up)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent, self.request))

    def wrap(self, name: str, fn, hook=None):
        """`fn` wrapped to record a span named `name`.

        `hook(args, kwargs, None)` runs before the call and
        `hook(args, kwargs, (what it returned, fn's result))` after it, both
        outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)  # reserve, so children see the parent
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            ctx = hook(args, kwargs, None) if hook else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent,
                                       tracer.request)
            if hook:
                hook(args, kwargs, (ctx, result))
            return result

        return traced

    # -- counters taken at layer boundaries ---------------------------------
    def _count_unlearn(self, args, kwargs, done):
        if done is not None:
            self.counters["ensemble.learners_retrained"] += \
                done[1][2].num_affected

    def _count_generator(self, args, kwargs, done):
        if done is not None:
            self.counters["coding.generators_returned"] += 1

    def _count_save(self, args, kwargs, done):
        directory = Path(args[0] if args else kwargs["directory"])
        if done is None:
            before = _dir_state(directory) if directory.exists() else {}
            return before, _io_counters()
        (before, io0), _ = done
        after = _dir_state(directory)
        self.counters["session.files_written"] += sum(
            1 for path, state in after.items() if before.get(path) != state)
        self.counters["session.bytes_written"] += \
            _io_counters()["wchar"] - io0["wchar"]

    def _count_load(self, args, kwargs, done):
        if done is None:
            return _io_counters()
        io0, _ = done
        self.counters["session.bytes_read"] += \
            _io_counters()["rchar"] - io0["rchar"] - io0["own"]

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every function in TRACED wherever codedunlearn binds it."""
        import codedunlearn  # noqa: F401  (loads the library modules)
        import codedunlearn.session  # noqa: F401  (not re-exported)

        hooks = {
            "ensemble.unlearn": self._count_unlearn,
            "coding.rand_matrix": self._count_generator,
            "coding.rand_matrix_minimal": self._count_generator,
            "session.save_session": self._count_save,
            "session.load_session": self._count_load,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "codedunlearn"
                                         or n.startswith("codedunlearn."))]
        for mod_name, attr in TRACED:
            home = sys.modules[f"codedunlearn.{mod_name}"]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, orig, hooks.get(name)))
                continue
            orig = getattr(home, attr)
            wrapper = self.wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Trace inside the `with` block only."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- output ------------------------------------------------------------
    def dump(self, path) -> None:
        """Write spans (one JSON array per line) and counters to `path`."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counters": self.counters,
                                 "pid": os.getpid()}) + "\n")
            for span in self.spans:   # null marks a span still open
                fh.write(json.dumps(span) + "\n")


def load_dump(path) -> tuple[dict, list]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return header["counters"], spans


def summarize(processes) -> dict[str, dict[str, float]]:
    """calls, total_s and self_s per span name, over the span lists of one
    or more processes (parent indices are per process).

    Self time is a span's duration minus the durations of its direct
    children.
    """
    table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
             for name in SPAN_NAMES}
    for spans in processes:
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        for i, span in enumerate(spans):
            if span is None:
                continue
            name, start, end = span[:3]
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
    return table
