"""Span tracing for the traced benchmark run.

Each wrapped call records one span ``(name, start, end, parent, job)``,
where ``parent`` is the index of the span that was open when the call
began (-1 at the top).  Spans stay in memory until the job ends.

Names are wrapped in the module that looks them up: ``ephgeom`` binds
``evalf``/``normal``/``subs``/``diff`` with ``from ... import``, so
``ephgeom.evalf`` is wrapped rather than ``symexpr.evalf``.  Calls made
inside ``symexpr`` itself (``normal`` from ``lsolve``, for instance) are
therefore not spans and count towards the caller's self time.  The
symbolic ``add``/``mul`` constructors run millions of times and are not
wrapped.
"""

from __future__ import annotations

import importlib
import os
import time

# (cliffeph module, or module.Class, that looks the name up; attribute; span name)
PATCHES = (
    ("ephgeom", "evalf", "symexpr.evalf"),
    ("symexpr", "lsolve", "symexpr.lsolve"),
    ("ephgeom", "normal", "symexpr.normal"),
    ("cliffalg", "normal", "symexpr.normal"),
    ("ephgeom", "diff", "symexpr.diff"),
    ("ephgeom", "subs", "symexpr.subs"),
    ("cliffalg.Multivector", "__mul__", "cliffalg.Multivector.mul"),
    ("moebius", "clifford_inverse", "cliffalg.clifford_inverse"),
    ("moebius", "clifford_to_lst", "cliffalg.clifford_to_lst"),
    ("ephgeom", "clifford_moebius_map", "moebius.clifford_moebius_map"),
    ("ephgeom", "mat_mul", "moebius.mat_mul"),
    ("moebius", "mat_mul", "moebius.mat_mul"),
    ("ephgeom", "build_families", "ephgeom.build_families"),
    ("ephgeom", "vector_fields", "ephgeom.vector_fields"),
    ("plotcli", "sample_orbits", "ephgeom.sample_orbits"),
    ("plotcli", "sample_transverses", "ephgeom.sample_transverses"),
    ("plotcli", "sample_arrows", "ephgeom.sample_arrows"),
    ("plotcli", "sample_future_past", "ephgeom.sample_future_past"),
    ("plotcli", "verify_k_orbit", "ephgeom.verify_k_orbit"),
    ("plotcli", "verify_parabolic_vertices", "ephgeom.verify_parabolic_vertices"),
    ("plotcli", "write_curves", "plotcli.write_curves"),
)


class Tracer:
    """In-memory span recorder for one job."""

    def __init__(self, job):
        self.job = job
        self.spans = []
        self._stack = []

    def current(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][1] if self._stack else None

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` recording a span per call.  ``on_result(args,
        result)`` runs after the span has closed, so its cost is charged
        to the caller rather than to ``name``."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        job = self.job

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append((idx, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, job)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced


def self_times(spans):
    """Per span name: (calls, self seconds).  A span's self time is its
    duration minus the part of it that its child spans cover."""
    children = {}
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(idx)
    out = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# Expression sizes, from the public Expr attributes


def _children(e):
    for attr in ("terms", "factors"):
        kids = getattr(e, attr, None)
        if kids is not None:
            return kids
    for attr in ("base", "arg"):
        kid = getattr(e, attr, None)
        if kid is not None:
            return (kid,)
    return ()


class ExprSizes:
    """Tree and DAG node counts, memoised by object identity.

    The tree size is the number of nodes a recursive walk visits; the DAG
    size is the number of structurally distinct nodes.
    """

    def __init__(self):
        self._tree = {}
        self._dag = {}

    def tree(self, e):
        hit = self._tree.get(id(e))
        if hit is not None:
            return hit[1]
        n = 1 + sum(self.tree(c) for c in _children(e))
        self._tree[id(e)] = (e, n)
        return n

    def dag(self, e):
        hit = self._dag.get(id(e))
        if hit is None:
            hit = self._dag[id(e)] = (e, unique_nodes([e]))
        return hit[1]


def unique_nodes(exprs):
    """Number of structurally distinct nodes reachable from ``exprs``."""
    seen = set()
    todo = list(exprs)
    while todo:
        e = todo.pop()
        if e not in seen:
            seen.add(e)
            todo.extend(_children(e))
    return len(seen)


# ---------------------------------------------------------------------------
# Job probe: the wrappers plus the counters measured at the same boundaries


class JobProbe:
    """Installs the wrappers into the cliffeph modules and turns what they
    saw into the job's per-layer report."""

    def __init__(self, job):
        self.tracer = Tracer(job)
        self._ephgeom = importlib.import_module("cliffeph.ephgeom")
        self._evaluated = {}      # id -> [expr, calls]
        self._families = {}       # id -> families dict of one metric
        self._transverse = []     # normal() results made by sample_transverses
        self._records = 0
        self._attempted = 0
        self._fits = 0
        self._skipped = 0
        self._written = []
        hooks = {
            "symexpr.evalf": self._on_evalf,
            "symexpr.normal": self._on_normal,
            "ephgeom.build_families": self._on_families,
            "ephgeom.sample_orbits": self._on_streams,
            "ephgeom.sample_transverses": self._on_streams,
            "ephgeom.sample_arrows": self._on_arrows,
            "ephgeom.sample_future_past": self._on_future_past,
            "ephgeom.verify_parabolic_vertices": self._on_vertices,
            "plotcli.write_curves": self._on_write,
        }
        for path, attr, name in PATCHES:
            module, _, cls = path.partition(".")
            owner = importlib.import_module("cliffeph." + module)
            if cls:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
            setattr(owner, attr, self.tracer.wrap(name, fn, hooks.get(name)))

    def _on_evalf(self, args, _):
        hit = self._evaluated.get(id(args[0]))
        if hit is None:
            self._evaluated[id(args[0])] = [args[0], 1]
        else:
            hit[1] += 1

    def _on_normal(self, _, result):
        if self.tracer.current() == "ephgeom.sample_transverses":
            self._transverse.append(result)

    def _on_families(self, _, result):
        self._families[id(result)] = result

    def _on_streams(self, args, result):
        kind, sub = args[0], args[1]
        tables = self._ephgeom.DEFAULT_TUNING
        points = tables.vilimits[sub][kind] * (2 * tables.fsteps[sub][kind] + 1)
        self._records += sum(len(r) for r in result.values())
        self._attempted += len(result) * points

    def _on_arrows(self, _, result):
        g = self._ephgeom
        self._records += len(result)
        self._attempted += len(g.ARROW_GRID_COLS) * len(g.ARROW_GRID_ROWS)

    def _on_future_past(self, _, result):
        g = self._ephgeom
        self._records += sum(len(frame) for frame in result)
        nodes = len(range(-g.FUTURE_PAST_NODES // 2, g.FUTURE_PAST_NODES // 2 + 1))
        self._attempted += g.FUTURE_PAST_FRAMES * g.FUTURE_PAST_CURVES * nodes

    def _on_vertices(self, _, report):
        self._fits += len(report.fits)
        self._skipped += report.skipped

    def _on_write(self, args, _):
        self._written.append(args[1])

    def report(self):
        """Counters of this job; spans are added by the caller."""
        sizes = ExprSizes()
        evalf_tree = evalf_dag = 0
        for e, calls in self._evaluated.values():
            evalf_tree += calls * sizes.tree(e)
            evalf_dag += calls * sizes.dag(e)
        family_tree = family_dag = 0
        for fams in self._families.values():
            exprs = [x for fam in fams.values() for x in (fam.u, fam.v)]
            family_tree += sum(sizes.tree(x) for x in exprs)
            family_dag += unique_nodes(exprs)
        return {
            "symexpr.evalf.tree_nodes": evalf_tree,
            "symexpr.evalf.dag_nodes": evalf_dag,
            "ephgeom.family_tree_nodes": family_tree,
            "ephgeom.family_dag_nodes": family_dag,
            "ephgeom.transverse_tree_nodes": sum(sizes.tree(x) for x in self._transverse),
            "ephgeom.records": self._records,
            "ephgeom.attempted": self._attempted,
            "ephgeom.vertex_fits": self._fits,
            "ephgeom.vertex_skipped": self._skipped,
            "plotcli.bytes_written": sum(os.path.getsize(p) for p in self._written),
        }
