"""Spans around the calls into each hornwave module, from outside it.

The tracer replaces each traced function under the name it is looked up
by (a module global such as ``hornwave.rg.kernel_quadrature``, or a
method on a profile class) with a wrapper that records one span per
call, and puts every original back when it exits.  Nothing under
``src/`` changes, and timed passes never run with wrappers installed.

Spans nest on a per-thread stack: ``--jobs 2`` runs stations on pool
threads at the same time, and one shared stack would make their spans
parents of each other.  A pool thread's outermost span takes the span
that submitted the work as its parent, so every span carries the job it
belongs to.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_PROFILE_METHODS = ("area", "area_derivative", "zeta_of_x", "x_of_zeta",
                    "mu", "mu_x_over_mu", "mu_of_zeta")
# methods whose first argument after self is nu, not the mapped points
_NU_FIRST = ("mu", "mu_of_zeta")


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    job: str
    thread: int
    group: str          # metric group, e.g. "kernel" or "rg.q1"
    label: str          # the name the call was looked up by
    start: float
    end: float
    points: int = 0     # profile maps: array elements mapped
    steps: int = 0      # solver: accepted march steps

    @property
    def layer(self):
        return self.group.split(".")[0]


class Tracer:
    """Install wrappers on enter, restore them on exit; spans stay in memory."""

    def __init__(self, hornwave):
        self.hw = hornwave
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- span bookkeeping ------------------------------------------------

    def _context(self):
        """(stack, parent id, job) for the calling thread."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if stack:
            return stack, stack[-1][0], stack[-1][1]
        adopted = getattr(local, "adopted", None)
        if adopted is None:
            return stack, None, ""
        return stack, adopted[0], adopted[1]

    def _call(self, group, label, fn, args, kwargs, points=0, job=None):
        stack, parent, inherited = self._context()
        job = inherited if job is None else job
        sid = next(self._ids)
        stack.append((sid, job))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            steps = getattr(result, "steps", 0) if group == "solver" else 0
            self.spans.append(Span(sid, parent, job, threading.get_ident(),
                                   group, label, start, end, points, steps))
        return result

    def root(self, job, fn, *args):
        """Run one CLI job as the outermost span of its tree."""
        return self._call("cli", "hornwave.cli.main", fn, args, {}, job=job)

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr, group, label, points_arg=None):
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            points = 0
            if points_arg is not None and len(args) > points_arg:
                points = int(np.size(args[points_arg]))
            return tracer._call(group, label, original, args, kwargs, points)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Carries the submitting span over to the pool thread."""

            def submit(self, fn, /, *args, **kwargs):
                _, parent, job = tracer._context()

                def adopted(*a, **k):
                    tracer._local.adopted = (parent, job)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.adopted = None

                return super().submit(adopted, *args, **kwargs)

        return TracedPool

    def __enter__(self):
        hw = self.hw
        cli, rg, profiles = hw.cli, hw.rg, hw.profiles
        try:
            self._patch(cli, "evaluate_station", "rg.station",
                        "hornwave.cli.evaluate_station")
            for attr, group in (("zero_order", "rg.q0"),
                                ("first_order", "rg.q1"),
                                ("perturbative", "rg.qpt"),
                                ("kernel_quadrature", "kernel")):
                self._patch(rg, attr, group, f"hornwave.rg.{attr}")
            self._patch(cli, "solve", "solver", "hornwave.cli.solve")
            self._patch(cli, "residual", "solver.residual",
                        "hornwave.cli.residual")
            for attr, group in (("first_integral_solution", "invariant.orbit"),
                                ("integrate_factor_ode", "invariant.factor_ode"),
                                ("assemble_invariant_q", "invariant.assemble")):
                self._patch(cli, attr, group, f"hornwave.cli.{attr}")
            for module in (profiles, hw.kernel, hw.invariant):
                self._patch(module, "adaptive_quad", "quadrature",
                            f"{module.__name__}.adaptive_quad")
            for cls in _profile_classes(profiles):
                for method in _PROFILE_METHODS:
                    if method in cls.__dict__:
                        self._patch(cls, method, "profiles.map",
                                    f"{cls.__name__}.{method}",
                                    points_arg=2 if method in _NU_FIRST else 1)
                if "__post_init__" in cls.__dict__:
                    self._patch(cls, "__post_init__", "profiles.build",
                                f"{cls.__name__}.__post_init__")
            self._patches.append((cli, "ThreadPoolExecutor",
                                  cli.__dict__["ThreadPoolExecutor"]))
            cli.ThreadPoolExecutor = self._pool_class()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")


def _profile_classes(profiles):
    base = profiles.Profile
    return [obj for obj in vars(profiles).values()
            if isinstance(obj, type) and issubclass(obj, base)]


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer numbers


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class Reduction:
    self_s: dict        # span id -> self time
    threads: list       # (label, busy, self sum, waiting sum)


def reduce_spans(spans, main_thread):
    """Self time per span and the per-thread busy-time accounting.

    A span's self time is its duration minus the part of it covered by
    its children.  Children on the span's own thread nest inside it; a
    pool thread's children overlap each other, so the covered part is
    the union of the child intervals, which keeps self time >= 0.  The
    covered part not explained by same-thread children is time the
    thread spent waiting for other threads.
    """
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    self_s, wait_s = {}, {}
    for s in spans:
        children = kids.get(s.sid, ())
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children)
        same = sum(c.end - c.start for c in children if c.thread == s.thread)
        self_s[s.sid] = (s.end - s.start) - covered
        wait_s[s.sid] = covered - same
    thread_of = {s.sid: s.thread for s in spans}
    per_thread = defaultdict(lambda: [[], 0.0, 0.0])
    for s in spans:
        entry = per_thread[s.thread]
        if s.parent is None or thread_of.get(s.parent) != s.thread:
            entry[0].append((s.start, s.end))
        entry[1] += self_s[s.sid]
        entry[2] += wait_s[s.sid]
    threads = []
    pools = 0
    for thread, (roots, own, waited) in per_thread.items():
        if thread == main_thread:
            label = "main"
        else:
            pools += 1
            label = f"pool-{pools}"
        threads.append((label, _union_length(roots), own, waited))
    threads.sort(key=lambda t: (t[0] != "main", t[0]))
    return Reduction(self_s, threads)


LAYERS = ("cli", "rg", "kernel", "solver", "profiles", "quadrature",
          "invariant")


def layer_metrics(spans, reduction, *, series_gap, bytes_written,
                  pool_speedup, overhead_frac):
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    selfs = reduction.self_s
    by_group = defaultdict(list)
    for s in spans:
        by_group[s.group].append(s)
    group_of = {s.sid: s.group for s in spans}

    def self_sum(*groups):
        return sum(selfs[s.sid] for g in groups for s in by_group[g])

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    kernel = by_group["kernel"]
    q1_ids = {s.sid for s in by_group["rg.q1"]}
    qpt_ids = {s.sid for s in by_group["rg.qpt"]}
    steps = sum(s.steps for s in by_group["solver"])
    entering = [s for s in by_group["profiles.map"]
                if not group_of.get(s.parent, "").startswith("profiles")]
    points = sum(s.points for s in entering)

    return {
        "kernel.calls": len(kernel),
        "kernel.self_s": self_sum("kernel"),
        "kernel.ms_per_call": per(self_sum("kernel"), len(kernel), 1e3),
        "kernel.series_gap": series_gap,
        "rg.q1.self_s": self_sum("rg.q1"),
        "rg.qpt.self_s": self_sum("rg.qpt"),
        "rg.kernel_calls_per_q1": per(
            sum(1 for s in kernel if s.parent in q1_ids), len(q1_ids)),
        "rg.kernel_calls_per_qpt": per(
            sum(1 for s in kernel if s.parent in qpt_ids), len(qpt_ids)),
        "solver.calls": len(by_group["solver"]),
        "solver.self_s": self_sum("solver"),
        "solver.steps": steps,
        "solver.us_per_step": per(self_sum("solver"), steps, 1e6),
        "profiles.calls": len(entering),
        "profiles.points": points,
        "profiles.self_s": self_sum("profiles.map", "profiles.build"),
        "profiles.us_per_point": per(self_sum("profiles.map"), points, 1e6),
        "profiles.build_s": sum(s.end - s.start
                                for s in by_group["profiles.build"]),
        "quadrature.calls": len(by_group["quadrature"]),
        "quadrature.self_s": self_sum("quadrature"),
        "invariant.orbit.self_s": self_sum("invariant.orbit"),
        "invariant.factor_ode.self_s": self_sum("invariant.factor_ode"),
        "invariant.assemble.calls": len(by_group["invariant.assemble"]),
        "invariant.assemble.self_s": self_sum("invariant.assemble"),
        "solver.residual.self_s": self_sum("solver.residual"),
        "cli.self_s": self_sum("cli"),
        "cli.bytes_written": bytes_written,
        "cli.pool_speedup": pool_speedup,
        "trace.overhead_frac": overhead_frac,
    }


# Counts that must repeat exactly between two traced passes of the same jobs.
EXACT_COUNTS = ("kernel.calls", "rg.kernel_calls_per_q1",
                "rg.kernel_calls_per_qpt", "solver.calls", "solver.steps",
                "profiles.calls", "profiles.points", "quadrature.calls",
                "invariant.assemble.calls", "cli.bytes_written")


def layer_self_times(spans, reduction):
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + reduction.self_s[s.sid]
    return out


def write_spans(path, spans):
    """All spans of the traced passes as CSV, written once at the end."""
    with open(path, "w") as handle:
        handle.write("id,parent,job,thread,group,label,start,end,points,steps\n")
        for s in spans:
            handle.write(f"{s.sid},{'' if s.parent is None else s.parent},"
                         f"{s.job},{s.thread},{s.group},{s.label},"
                         f"{s.start:.9f},{s.end:.9f},{s.points},{s.steps}\n")
