"""Outside-in tracing of the nccbank layers.

A :class:`Tracer` replaces every public function of the traced modules
(module attributes) and the scorer classes' ``__call__`` with a wrapper that
records one span per call.  Calls inside ``src/nccbank`` look functions up
through module attributes or module globals, so the wrappers see every
layer boundary without any change to the program.  Spans are kept in
memory and written out once, when the run ends.

Each span is ``(id, parent_id, name, start, end)`` with ``perf_counter``
times; ``parent_id`` is -1 for a root.  Self time is a span's duration
minus the time covered by its direct children.
"""

import contextlib
import functools
import json
import os
import time
import types
from collections import Counter, defaultdict

import numpy as np

# Scorer labels: file-backed methods carry their path in the name, so they
# are grouped by their prefix.
FILE_METHOD_PREFIXES = ("net", "qfilter", "filter")


def method_label(name):
    """Metric-safe label for a bench method name."""
    prefix = name.split(":", 1)[0]
    if ":" in name and prefix in FILE_METHOD_PREFIXES:
        return prefix
    return name


def _path_size(path):
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        return os.path.getsize(path)
    return 0


# Exact counters taken at layer boundaries: hook(tracer, args, kwargs, result).
def _count_normalize(tr, args, kwargs, result):
    tr.counts["nccnet.normalize_flat_batch.rows"] += int(np.shape(args[0])[0])


def _count_train(tr, args, kwargs, result):
    tr.counts["nccnet.train.skipped_degenerate"] += int(result.skipped_degenerate)
    tr.counts["nccnet.train.patches"] += int(np.shape(args[1])[0])


def _count_fixed_response(tr, args, kwargs, result):
    tr.counts["filterbank.degenerate_windows"] += int(np.count_nonzero(result[1]))


def _count_read_grid(tr, args, kwargs, result):
    tr.counts["gridio.bytes_read"] += _path_size(args[0])


def _count_write_grid(tr, args, kwargs, result):
    tr.counts["gridio.bytes_written"] += _path_size(args[1])


def _count_candidates(tr, args, kwargs, result):
    label = method_label(args[1].name)
    tr.counts[f"bench.candidates.{label}"] += len(result)
    tr.counts[f"bench.frames.{label}"] += 1


HOOKS = {
    "nccnet.normalize_flat_batch": _count_normalize,
    "nccnet.train": _count_train,
    "filterbank.mad_ncc_fixed_response": _count_fixed_response,
    "gridio.read_grid": _count_read_grid,
    "gridio.write_grid": _count_write_grid,
    "bench.detect_candidates": _count_candidates,
}


class Tracer:
    """Span and counter recorder; a context manager that installs and then
    removes the wrappers."""

    def __init__(self, modules, scorer_classes=()):
        self.modules = modules  # {short name: module}
        self.scorer_classes = scorer_classes
        self.spans = []
        self.counts = Counter()
        self.errors = Counter()
        self.score_range = {}  # label -> [min, max]
        self._stack = []
        self._saved = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _exit(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-side span, e.g. the root of one operation."""
        sid = self._enter(name)
        try:
            yield
        finally:
            self._exit(sid)

    def _wrap(self, module, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                self._exit(sid)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _wrap_scorer(self, call):
        @functools.wraps(call)
        def wrapper(scorer, frame):
            label = method_label(scorer.name)
            sid = self._enter(f"bench.score.{label}")
            try:
                out = call(scorer, frame)
            except BaseException:
                self.errors["bench"] += 1
                raise
            finally:
                self._exit(sid)
            lo, hi = float(np.min(out)), float(np.max(out))
            rng = self.score_range.setdefault(label, [lo, hi])
            rng[0], rng[1] = min(rng[0], lo), max(rng[1], hi)
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for short, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(short, f"{short}.{attr}", obj))
        for cls in self.scorer_classes:
            call = cls.__dict__["__call__"]
            self._saved.append((cls, "__call__", call))
            cls.__call__ = self._wrap_scorer(call)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        return False

    def restored(self):
        """True once every replaced attribute holds its original again."""
        return all(getattr(owner, attr) is original for owner, attr, original in self._saved)

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """Per span: (name, duration, self time)."""
        child = np.zeros(len(self.spans))
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (name, end - start, end - start - float(child[sid]))
            for sid, _, name, start, end in self.spans
        ]

    def summary(self):
        """name -> {"calls", "total_s", "self_s", "durations", "self_durations"}."""
        out = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                     "durations": [], "self_durations": []}
        )
        for name, dur, own in self.self_times():
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += own
            rec["durations"].append(dur)
            rec["self_durations"].append(own)
        return out

    def write(self, fh, extra=None):
        """Write spans, counters and any extra blocks as one JSON document."""
        doc = {
            "span_fields": ["id", "parent_id", "name", "start", "end"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "errors": dict(self.errors),
            "score_range": self.score_range,
        }
        doc.update(extra or {})
        json.dump(doc, fh)
