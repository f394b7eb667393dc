"""Spans around the public functions of each fdsi module, recorded from outside.

The benchmark never edits the package.  During a traced replay it replaces
module attributes (``search.exact_solve``, ``fairness.check``, ...) with thin
wrappers and puts the originals back afterwards.  A wrapper either records
one span per call (name, start, end, parent span, call id) or, for hot inner
functions such as ``fairness.check`` inside the brute-force oracle, only
counts the call and times a sample, so tracing does not swamp what it
measures.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter_ns

from checking import maximizer_columns
from fdsi import allocators, cli, fairness, model, sa_empty, search, serialize

# A hot wrapper times every call until this many, then one call in SAMPLE_EVERY.
SAMPLE_FIRST = 64
SAMPLE_EVERY = 16


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (call_id, span_id, parent_id, name, start_ns, end_ns)
        self.hot_calls: dict[str, int] = defaultdict(int)
        self.hot_timed: dict[str, list[int]] = defaultdict(list)
        self.call_id: int | None = None
        self.notes: dict = {}  # what the wrappers saw during the current call
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _open(self) -> tuple[int, int | None, int]:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next_id)
        return self._next_id, parent, perf_counter_ns()

    def _close(self, name: str, span_id: int, parent, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans.append((self.call_id, span_id, parent, name, start, end))

    def run_call(self, call_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span ``cli.main`` of call ``call_id``."""
        self.call_id = call_id
        self.notes = {}
        span_id, parent, start = self._open()
        try:
            return fn(*args)
        finally:
            self._close("cli.main", span_id, parent, start)

    def spanned(self, name: str, fn, on_return=None):
        def wrapper(*args, **kwargs):
            span_id, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, span_id, parent, start)
            if on_return is not None:
                on_return(result, args, kwargs, len(self._stack))
            return result

        return wrapper

    def hot(self, name: str, fn):
        calls = self.hot_calls
        timed = self.hot_timed[name]

        def wrapper(*args, **kwargs):
            k = calls[name]
            calls[name] = k + 1
            if k < SAMPLE_FIRST or k % SAMPLE_EVERY == 0:
                start = perf_counter_ns()
                result = fn(*args, **kwargs)
                timed.append(perf_counter_ns() - start)
                return result
            return fn(*args, **kwargs)

        return wrapper

    def generator_span(self, name: str, fn):
        """Span from a generator's creation until it is exhausted or closed.

        The span is not pushed on the parent stack: the consumer's own calls
        interleave with the generator and keep their real parent.
        """

        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1] if self._stack else None
            call_id = self.call_id
            start = perf_counter_ns()
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.spans.append((call_id, span_id, parent, name, start, perf_counter_ns()))

        return wrapper

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------
    def durations(self, name: str) -> list[int]:
        return [end - start for (_, _, _, n, start, end) in self.spans if n == name]

    def per_call_ns(self, name: str) -> tuple[float, int]:
        """Mean nanoseconds per call (sampled for hot functions) and the call count."""
        if name in self.hot_calls:
            timed = self.hot_timed[name]
            return (sum(timed) / len(timed) if timed else 0.0), self.hot_calls[name]
        d = self.durations(name)
        return (sum(d) / len(d) if d else 0.0), len(d)

    def export(self) -> dict:
        return {
            "span_fields": ["call_id", "span_id", "parent_id", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "hot_calls": dict(self.hot_calls),
            "hot_sampled_mean_ns": {
                k: (sum(v) / len(v) if v else None) for k, v in self.hot_timed.items()
            },
            "sampling": {"first": SAMPLE_FIRST, "every": SAMPLE_EVERY},
        }


def _scan_digits(inst, require_sim: bool) -> list:
    """Owner choices per item, in the order the brute-force oracle scans them."""
    if require_sim:
        return maximizer_columns(inst)
    return [range(inst.n)] * inst.m


def instrument(t: Tracer) -> None:
    """Wrap the public functions of every fdsi module the CLI reaches."""
    t.patch(serialize, "load_instance", t.spanned("serialize.load_instance", serialize.load_instance))
    t.patch(serialize, "load_allocation", t.spanned("serialize.load_allocation", serialize.load_allocation))
    t.patch(serialize, "dumps", t.spanned("serialize.dumps", serialize.dumps))

    # names bound by ``from .model import ...`` are patched where they are read
    all_max = t.hot("model.all_maximizers", model.all_maximizers)
    for mod in (model, fairness, search, allocators):
        t.patch(mod, "all_maximizers", all_max)
    from_assignment = model.Allocation.__dict__["from_assignment"].__func__
    t.patch(model.Allocation, "from_assignment", classmethod(t.hot("model.from_assignment", from_assignment)))

    check = t.hot("fairness.check", fairness.check)
    t.patch(fairness, "check", check)
    t.patch(cli, "check_notion", check)
    is_sim = t.hot("fairness.is_sim", fairness.is_sim)
    t.patch(fairness, "is_sim", is_sim)
    t.patch(cli, "is_sim", is_sim)

    def candidate(result, args, kwargs, depth):
        if result is not None and depth == 1:  # built for cli, not nested
            t.notes.setdefault("candidates", []).append(result)

    for attr in ("sa_weighted_picking", "sa_efl_allocate", "two_agent_mixed_fast_path"):
        t.patch(allocators, attr, t.spanned(f"allocators.{attr}", getattr(allocators, attr), candidate))

    exact = search.exact_solve

    def exact_with_stats(*args, **kwargs):
        stats = kwargs.setdefault("stats", {})
        try:
            return exact(*args, **kwargs)
        finally:
            t.notes.setdefault("exact", []).append(dict(stats))

    t.patch(search, "exact_solve", t.spanned("search.exact_solve", exact_with_stats))

    def brute_scanned(result, args, kwargs, depth):
        # mixed-radix rank of the answer + 1, or the whole order when none
        inst = args[0]
        digits = _scan_digits(inst, kwargs.get("require_sim", True))
        if result is None:
            scanned = math.prod(len(d) for d in digits)
        else:
            owners, rank = result.owners(inst.m), 0
            for g, d in enumerate(digits):
                rank = rank * len(d) + d.index(owners[g])
            scanned = rank + 1
        t.notes["brute_candidates"] = t.notes.get("brute_candidates", 0) + scanned

    t.patch(search, "brute_force_solve", t.spanned("search.brute_force_solve", search.brute_force_solve, brute_scanned))

    enumerate_sim = search.enumerate_sim_allocations

    def counted(inst):
        # runs at the first next(); ``brute --count`` scans the whole order
        # from cli, while brute_force_solve (one level deeper) counts itself
        if len(t._stack) == 1:
            total = math.prod(len(d) for d in _scan_digits(inst, True))
            t.notes["brute_candidates"] = t.notes.get("brute_candidates", 0) + total
        return enumerate_sim(inst)

    t.patch(search, "enumerate_sim_allocations", t.generator_span("search.enumerate_sim_allocations", counted))
    t.patch(sa_empty, "solve_sa_empty", t.spanned("sa_empty.solve_sa_empty", sa_empty.solve_sa_empty))
