"""Outside-in tracing of ``adaptive_mc`` for the benchmark's traced runs.

Nothing under ``src/`` is changed.  While a ``Tracer`` is installed, every
public function of the six modules is replaced by a timing wrapper in each
namespace that binds it: the package, the owning module and every module
that imports it by name (``adaptive_mc.lrebn.restricted_lstsq``,
``adaptive_mc.verify.orthonormalize``, ``adaptive_mc.cli.run_check``, ...).
Patching only the owning module would record nothing, because callers
look the name up in their own globals.  Oracle reads are timed through an
``ObservationOracle`` subclass bound in the same namespaces.  Uninstalling
restores every original binding.

Spans are kept in memory as ``Span`` tuples (id, name, start, end, parent
id, thread id); the parent is the innermost open span of the same thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

MODULES = ("linalg", "sampling", "synthetic", "lrebn", "verify", "cli")

# The private CLI helper that is one unit of sweep pool work; no public
# function sits at that boundary.
_SWEEP_TASK = "_sweep_cell"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    """In-memory span and counter store, safe to use from pool threads."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident()))

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` timed as span ``name``; ``on_result(tracer,
        result, args)`` runs after the span closes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result, args)
            return result

        traced.__traced_original__ = fn
        return traced

    def write(self, path):
        """Write every span as one CSV line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.id},{s.name},{s.start!r},{s.end!r},"
                         f"{parent},{s.thread}\n")


# ---------------------------------------------------------------------------
# Result hooks: counters measured where the work happens
# ---------------------------------------------------------------------------

def _on_lstsq(tracer, result, args):
    tracer.count("linalg.degenerate_fits", int(bool(result[2])))


def _on_run_lrebn(tracer, result, args):
    m = result.M_tilde.shape[0]
    tracer.count("lrebn.columns", len(result.column_records))
    tracer.count("lrebn.full_reads", sum(
        rec.mode == "FullyObserved" for rec in result.column_records))
    tracer.count("lrebn.subspace_updates", len(result.budget_trace) - 1)
    tracer.count("lrebn.budget_clamped_events", sum(
        ev.d_formula > m for ev in result.budget_trace))


def _on_write_matrix(tracer, result, args):
    tracer.count("synthetic.write_matrix_bytes", os.path.getsize(args[0]))


def _on_check(check):
    def hook(tracer, report, args):
        tracer.count(f"verify.{check}_trials", report.trials)
        tracer.count("verify.fail_verdicts", int(report.verdict == "FAIL"))
    return hook


def _on_entries(tracer, result, args):
    tracer.count("synthetic.oracle_entries_read", len(result))


def _hook_for(owner, name):
    if name == "restricted_lstsq":
        return _on_lstsq
    if name == "run_lrebn":
        return _on_run_lrebn
    if name == "write_matrix":
        return _on_write_matrix
    if owner == "verify" and name.startswith("check_"):
        return _on_check(name[len("check_"):])
    return None


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------

def _namespaces():
    package = importlib.import_module("adaptive_mc")
    return [package] + [importlib.import_module(f"adaptive_mc.{m}")
                        for m in MODULES]


def public_functions():
    """Map each public function object to its span name ``module.name``.

    Public means listed in the module's ``__all__``, or for a module
    without one, defined there under a name without a leading underscore.
    """
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"adaptive_mc.{short}")
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n, v in vars(mod).items() if not n.startswith("_")
                     and getattr(v, "__module__", None) == mod.__name__]
        for name in names:
            obj = getattr(mod, name)
            if isinstance(obj, types.FunctionType):
                found[obj] = (short, name)
    return found


def traced_oracle_class(tracer, base):
    """``ObservationOracle`` subclass whose reads are spans."""
    return type("TracedObservationOracle", (base,), {
        "entry": tracer.wrap("synthetic.oracle_entry", base.entry),
        "entries": tracer.wrap("synthetic.oracle_entries", base.entries,
                               _on_entries),
        "column": tracer.wrap("synthetic.oracle_column", base.column),
    })


@contextmanager
def installed(tracer):
    """Bind the tracer's wrappers into every namespace; restore on exit."""
    from adaptive_mc import cli, synthetic

    functions = public_functions()
    oracle_cls = synthetic.ObservationOracle
    traced_oracle = traced_oracle_class(tracer, oracle_cls)
    saved = []
    try:
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                if value is oracle_cls:
                    replacement = traced_oracle
                elif (isinstance(value, types.FunctionType)
                      and value in functions):
                    owner, name = functions[value]
                    replacement = tracer.wrap(f"{owner}.{name}", value,
                                              _hook_for(owner, name))
                else:
                    continue
                saved.append((ns, attr, value))
                setattr(ns, attr, replacement)
        original = getattr(cli, _SWEEP_TASK)
        saved.append((cli, _SWEEP_TASK, original))
        setattr(cli, _SWEEP_TASK, tracer.wrap("cli.sweep_task", original))
        yield tracer
    finally:
        for ns, attr, value in reversed(saved):
            setattr(ns, attr, value)


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def _union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id to its duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - _union_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def nesting_errors(spans):
    """Spans whose interval does not fit inside their parent's."""
    by_id = {s.id: s for s in spans}
    bad = []
    for s in spans:
        p = by_id.get(s.parent) if s.parent is not None else None
        if s.parent is not None and (
                p is None or s.start < p.start or s.end > p.end
                or p.thread != s.thread):
            bad.append(s)
    return bad


class SpanIndex:
    """Call counts and outermost inclusive time per span name."""

    def __init__(self, spans):
        self.spans = spans
        self._by_id = {s.id: s for s in spans}
        self._names = defaultdict(list)
        self._self = None
        for s in spans:
            self._names[s.name].append(s)

    def calls(self, *names):
        return sum(len(self._names.get(n, ())) for n in names)

    def threads(self, name):
        """Distinct threads that ran spans named ``name``."""
        return len({s.thread for s in self._names.get(name, ())})

    def seconds(self, *names):
        """Summed duration of spans named ``names`` that have no ancestor
        among ``names`` (so recursion or nesting is not counted twice)."""
        wanted = set(names)
        total = 0.0
        for n in names:
            for s in self._names.get(n, ()):
                if not self._has_ancestor(s, wanted):
                    total += s.end - s.start
        return total

    def self_seconds(self, name):
        if self._self is None:
            self._self = self_times(self.spans)
        return sum(self._self[s.id] for s in self._names.get(name, ()))

    def _has_ancestor(self, span, names):
        pid = span.parent
        while pid is not None:
            parent = self._by_id[pid]
            if parent.name in names:
                return True
            pid = parent.parent
        return False
