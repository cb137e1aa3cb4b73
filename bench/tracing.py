"""Outside-in per-layer tracing for the benchmark.

The tracer patches the public names one layer of ``chainwise_sta`` imports
from another (``cli.run_scenario``, ``sweeps.propagate_density``,
``protocols.solve_aux_polynomials``, ...) with wrappers that open a span
around the call.  Two kinds of callables cross layers at run time rather
than by import, and are wrapped where they are created:

* the evaluator of every ``HamiltonianRule`` the schemes module returns,
  replaced through ``dataclasses.replace`` (the H(t) evaluations);
* the channels of every designed ``PulseSchedule`` (the pulse samples).

Nothing under ``src/`` changes: wrappers call the original objects and
return their results untouched, so traced outputs are bitwise equal to
untraced ones.  ``restore`` puts every original back.

Spans are aggregated per thread as they close, because an RK45 run opens
hundreds of thousands of evaluator spans.  Each thread keeps a stack: a
span's self time is its duration minus its children's on the same thread,
and spans nested inside a span of the same name add self time but no
count or total, so totals never double count.  Thread identity separates
the sweep pool's workers from the calling thread.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import threading
from time import perf_counter

import numpy as np

from chainwise_sta import cli, invariants, protocols, qcore, schemes, sweeps

# Span name of the propagation entry points; H(t) evaluations nested inside
# one are counted as ``qcore.h_eval`` instead of ``schemes.eval``.
QCORE = "qcore.propagate"


_FIELDS = ("count", "total", "self", "units")


class _ThreadLog:
    __slots__ = ("stack", "open", "totals", "root_s")

    def __init__(self):
        self.stack = []    # open frames: [name, start, child_seconds]
        self.open = {}     # name -> number of open spans of that name
        self.totals = {}   # name -> [count, total_s, self_s, units], see _FIELDS
        self.root_s = 0.0  # time in spans with no parent on this thread


class Tracer:
    """Installs span wrappers on the package and aggregates their timings."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs = {}        # thread ident -> _ThreadLog
        self._patches = []     # (owner, attribute, original)
        self.missing = []      # names the package no longer has

    # -- span bookkeeping -------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.setdefault(threading.get_ident(), []).append(log)
        return log

    def _call(self, name, func, args, kwargs, units=0):
        log = self._log()
        log.open[name] = log.open.get(name, 0) + 1
        frame = [name, perf_counter(), 0.0]
        log.stack.append(frame)
        try:
            return func(*args, **kwargs)
        finally:
            dur = perf_counter() - frame[1]
            log.stack.pop()
            depth = log.open[name] - 1
            log.open[name] = depth
            rec = log.totals.get(name)
            if rec is None:
                rec = log.totals[name] = [0, 0.0, 0.0, 0]
            rec[2] += dur - frame[2]
            if depth == 0:
                rec[0] += 1
                rec[1] += dur
                rec[3] += units
            if log.stack:
                log.stack[-1][2] += dur
            else:
                log.root_s += dur

    def count(self, name: str, units: int) -> None:
        """Add units to a counter that has no span of its own."""
        rec = self._log().totals.setdefault(name, [0, 0.0, 0.0, 0])
        rec[_FIELDS.index("units")] += units

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, func, on_result=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = tracer._call(name, func, args, kwargs)
            return result if on_result is None else on_result(result)

        return wrapper

    def _channel(self, func):
        tracer = self

        def channel(t):
            return tracer._call("protocols.channel", func, (t,), {}, units=np.size(t))

        return channel

    def _schedule(self, sched):
        """Copy of a schedule whose channels open spans (no re-validation)."""
        traced = copy.copy(sched)
        object.__setattr__(traced, "channels",
                           {k: self._channel(v) for k, v in sched.channels.items()})
        object.__setattr__(traced, "delta_two", self._channel(sched.delta_two))
        return traced

    def _rule(self, rule):
        tracer = self
        evaluate = rule.evaluator

        def evaluator(t):
            log = tracer._log()
            name = "qcore.h_eval" if log.open.get(QCORE, 0) else "schemes.eval"
            return tracer._call(name, evaluate, (t,), {}, units=np.size(t))

        return dataclasses.replace(rule, evaluator=evaluator)

    def _grid(self, grid):
        self.count("sweeps.cells", int(grid.cells.size))
        self.count("sweeps.failed_cells", len(grid.metadata.get("failed_cells", ())))
        return grid

    # -- install / restore -----------------------------------------------------

    def _patch(self, owner, attr, name, on_result=None):
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._span(name, original, on_result))

    def install(self) -> None:
        designers = ("design_protocol1", "design_protocol2", "design_chainwise")
        table = [
            (cli, "run_cli", "cli.run_cli", None),
            (cli, "run_scenario", "sweeps.run_scenario", None),
            (cli, "sweep_efficiency", "sweeps.sweep", self._grid),
            (cli, "sweep_peak_amplitude", "sweeps.sweep", self._grid),
            (cli, "design_schedule", "sweeps.design_schedule", None),
            (cli, "peak_amplitude", "protocols.peak", None),
            *[(mod, d, "protocols.design", self._schedule)
              for mod in (sweeps, protocols) for d in designers],
            (sweeps, "build_roundtrip", "protocols.roundtrip", self._schedule),
            (sweeps, "peak_amplitude", "protocols.peak", None),
            (sweeps, "hamiltonian_rule", "protocols.hamiltonian_rule", None),
            (protocols, "hamiltonian_rule", "protocols.hamiltonian_rule", None),
            (protocols, "effective_rule", "schemes.reduce", None),
            (protocols, "solve_aux_polynomials", "invariants.solve", None),
            (schemes, "build_lambda", "schemes.build", self._rule),
            (schemes, "build_m", "schemes.build", self._rule),
            (schemes.EffTwoLevel, "hamiltonian", "schemes.build", self._rule),
            (schemes.EffThreeLevel, "hamiltonian", "schemes.build", self._rule),
            (schemes, "reduce_lambda", "schemes.reduce", None),
            (schemes, "reduce_m", "schemes.reduce", None),
            (sweeps, "propagate_density", QCORE, None),
            (qcore, "propagate_density", QCORE, None),
            (qcore, "propagate_state", QCORE, None),
            (invariants, "invariant_residual", "invariants.residual", None),
            (invariants, "eigenstates2", "invariants.eigen", None),
            (invariants, "eigenstates3", "invariants.eigen", None),
        ]
        for owner, attr, name, on_result in table:
            self._patch(owner, attr, name, on_result)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics -------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass of the workload's op list.

        Counts of a fixed op list repeat exactly; dividing by the number of
        traced passes keeps them comparable between runs of any length.
        """
        main = threading.main_thread().ident
        agg: dict[str, list] = {}
        worker_root = 0.0
        for ident, logs in self._logs.items():
            for log in logs:
                if ident != main:
                    worker_root += log.root_s
                for name, rec in log.totals.items():
                    acc = agg.setdefault(name, [0, 0.0, 0.0, 0])
                    for i in range(4):
                        acc[i] += rec[i]

        def get(name, field):
            return agg.get(name, [0, 0.0, 0.0, 0])[_FIELDS.index(field)]

        def ms(seconds):
            return 1e3 * seconds / passes

        def per_pass(n):
            return n // passes if n % passes == 0 else n / passes

        busy = get(QCORE, "total")
        h_eval = get("qcore.h_eval", "total")
        h_evals = get("qcore.h_eval", "units")
        h_calls = get("qcore.h_eval", "count")
        q_self = get(QCORE, "self")
        wall = get("sweeps.sweep", "total")
        return {
            "qcore.calls": ("count/pass", per_pass(get(QCORE, "count"))),
            "qcore.busy_ms": ("ms/pass", ms(busy)),
            "qcore.h_evals": ("count/pass", per_pass(h_evals)),
            "qcore.h_calls": ("count/pass", per_pass(h_calls)),
            "qcore.h_evals_per_call": ("evals/call", h_evals / h_calls if h_calls else 0.0),
            "qcore.h_eval_ms": ("ms/pass", ms(h_eval)),
            "qcore.self_ms": ("ms/pass", ms(q_self)),
            "qcore.self_us_per_h_eval": ("us/eval", 1e6 * q_self / h_evals if h_evals else 0.0),
            "schemes.assemble_ms": ("ms/pass", ms(get("qcore.h_eval", "self")
                                             + get("schemes.eval", "self"))),
            "schemes.reduce_ms": ("ms/pass", ms(get("schemes.reduce", "total"))),
            "invariants.solve_ms": ("ms/pass", ms(get("invariants.solve", "total"))),
            "invariants.solve_calls": ("count/pass", per_pass(get("invariants.solve", "count"))),
            "invariants.residual_ms": ("ms/pass", ms(get("invariants.residual", "total"))),
            "invariants.eigen_ms": ("ms/pass", ms(get("invariants.eigen", "total"))),
            "protocols.design_ms": ("ms/pass", ms(get("protocols.design", "total"))),
            "protocols.designs": ("count/pass", per_pass(get("protocols.design", "count"))),
            "protocols.channel_ms": ("ms/pass", ms(get("protocols.channel", "total"))),
            "protocols.channel_points": ("count/pass",
                                         per_pass(get("protocols.channel", "units"))),
            "protocols.peak_ms": ("ms/pass", ms(get("protocols.peak", "total"))),
            "sweeps.cells": ("count/pass", per_pass(get("sweeps.cells", "units"))),
            "sweeps.failed_cells": ("count/pass", per_pass(get("sweeps.failed_cells", "units"))),
            "sweeps.wall_ms": ("ms/pass", ms(wall)),
            "sweeps.busy_ms": ("ms/pass", ms(worker_root)),
            "sweeps.concurrency": ("ratio", worker_root / wall if wall else 0.0),
            "sweeps.scenario_self_ms": ("ms/pass", ms(get("sweeps.run_scenario", "self"))),
            "cli.self_ms": ("ms/pass", ms(get("cli.run_cli", "self"))),
        }
