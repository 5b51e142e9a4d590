"""Outside-in tracing of the entwit package, installed from the benchmark.

The tracer replaces the public functions of the traced modules, and a few
named private functions and methods, with wrappers that record one span per
call: (id, parent id, name, thread id, start, end). Nothing inside the
package changes. Each wrapper is installed on every name under which a
module of the package holds the original function, because callers look a
function up where they imported it (``cli`` imports ``negativity`` by name)
or through their module globals (``HermitianSdp.solve`` calls the
module-level ``sdp.solve``).

Spans stay in memory. A per-thread stack gives the parent of each span; a
span opened on a worker thread with an empty stack takes as parent the span
that is innermost on the main thread at that moment, which is the caller
waiting on the pool.

Self time of a span is its duration minus the part of it its child spans
cover. When spans on several threads are open at once without open
children, the wall time of that instant is split evenly among them, so the
self times of all spans add up to the wall time of the root span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
import types

PACKAGE = "entwit"
MODULES = ("cli", "measures", "sdp", "linalg", "states", "spin", "witnesses")

# Private functions and methods wrapped besides every public module function.
EXTRA_HOOKS = (
    "cli._emit_csv",
    "sdp.HermitianSdp.add_matrix_equality",
    "sdp.HermitianSdp.build",
    "sdp.HermitianSdp.solve",
)

# Hooks the per-layer metrics read. A missing one is reported, not fatal.
REQUIRED_HOOKS = (
    "cli.main",
    "cli._emit_csv",
    "measures.e_nm_ppt",
    "measures.negativity",
    "measures.rg_ppt_closed",
    "linalg.partial_transpose",
    "linalg.eig_hermitian",
    "states.random_density",
    "states.thermal",
    "sdp.solve",
    "sdp.HermitianSdp.add_matrix_equality",
    "sdp.HermitianSdp.build",
    "sdp.HermitianSdp.solve",
    "spin.xxx_hamiltonian",
    "spin.susceptibility",
    "spin.thermo_estimate",
    "spin.toth_witness",
    "witnesses.evaluate",
)

# Per-layer metrics that the tracer computes, with their units. The parent
# process adds cli.csv_digest_match, cpu_s, cpu_util and
# trace_overhead_frac.
METRIC_UNITS = {
    "sdp.solve_s": "s",
    "sdp.s_per_iteration": "s",
    "sdp.solve_ms_p50": "ms",
    "sdp.iterations": "count",
    "sdp.iterations_max": "count",
    "sdp.solves": "count",
    "sdp.constraint_rows": "count",
    "sdp.status.optimal": "count",
    "sdp.stall_accepted": "count",
    "sdp.build_s": "s",
    "sdp.assemble_s": "s",
    "measures.e_nm_ppt.calls": "count",
    "measures.e_nm_ppt.self_s": "s",
    "measures.negativity.self_s": "s",
    "measures.rg_ppt_closed.self_s": "s",
    "linalg.partial_transpose_s": "s",
    "linalg.eig_hermitian_s": "s",
    "states.random_density_s": "s",
    "cli.emit_csv_s": "s",
    "spin.xxx_hamiltonian.calls": "count",
    "spin.xxx_hamiltonian_s": "s",
    "spin.susceptibility.self_s": "s",
    "spin.thermo_estimate.self_s": "s",
    "spin.toth_witness_s": "s",
    "states.thermal.calls": "count",
    "states.thermal_s": "s",
    "witnesses.evaluate_s": "s",
    **{f"{mod}.self_s": "s" for mod in MODULES},
    "trace.spans": "count",
    "trace.hooks_missing": "count",
    "trace.self_sum_frac": "frac",
}


class Tracer:
    """Records spans from wrappers installed on the package's functions."""

    def __init__(self):
        self.spans = []
        self.sdp_solves = []  # (m, iterations, status name) per sdp.solve
        self.hermitian_statuses = []  # status name per HermitianSdp.solve return
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, observe=None):
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        main_stack = self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(), t0, t1))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_solve(self, args, kwargs, sol):
        prob = args[0] if args else next(iter(kwargs.values()), None)
        self.sdp_solves.append((
            int(getattr(prob, "m", 0)),
            int(getattr(sol, "iterations", 0)),
            getattr(getattr(sol, "status", None), "name", "UNKNOWN"),
        ))

    def _observe_hermitian_solve(self, args, kwargs, sol):
        self.hermitian_statuses.append(getattr(getattr(sol, "status", None), "name", "UNKNOWN"))

    def install(self, extra=EXTRA_HOOKS, required=REQUIRED_HOOKS) -> None:
        """Wrap every public function of MODULES plus ``extra``.

        A name in ``extra`` or ``required`` that does not resolve is added
        to ``self.missing``.
        """
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                self.missing.append(short)
        holders = _package_modules()
        observers = {
            "sdp.solve": self._observe_solve,
            "sdp.HermitianSdp.solve": self._observe_hermitian_solve,
        }
        wrapped = set()
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                self._install_function(holders, obj, name, observers.get(name))
                wrapped.add(name)
        for name in extra:
            if name in wrapped:
                continue
            short, *path = name.split(".")
            owner = mods.get(short)
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            obj = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(obj):
                continue
            if isinstance(owner, type):
                setattr(owner, path[-1], self.wrap(obj, name, observers.get(name)))
                self._restore.append((owner, path[-1], obj))
            else:
                self._install_function(holders, obj, name, observers.get(name))
            wrapped.add(name)
        self.missing.extend(n for n in (*extra, *required)
                            if n not in wrapped and n not in self.missing)

    def _install_function(self, holders, fn, name, observe) -> None:
        wrapper = self.wrap(fn, name, observe)
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def metrics(self, wall_s: float) -> dict:
        """Aggregate the recorded spans into the per-layer metrics."""
        incl = {}
        calls = {}
        selfs = self_times(self.spans)
        self_by_name = {}
        solve_durations = []
        for (sid, _, name, _, t0, t1) in self.spans:
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            calls[name] = calls.get(name, 0) + 1
            self_by_name[name] = self_by_name.get(name, 0.0) + selfs[sid]
            if name == "sdp.solve":
                solve_durations.append(t1 - t0)
        iters = [it for _, it, _ in self.sdp_solves]
        solve_s = incl.get("sdp.solve", 0.0)
        out = {
            "sdp.solve_s": solve_s,
            "sdp.s_per_iteration": solve_s / sum(iters) if sum(iters) else 0.0,
            "sdp.solve_ms_p50": 1e3 * statistics.median(solve_durations)
            if solve_durations else 0.0,
            "sdp.iterations": sum(iters),
            "sdp.iterations_max": max(iters, default=0),
            "sdp.solves": len(self.sdp_solves),
            "sdp.constraint_rows": sum(m for m, _, _ in self.sdp_solves),
            "sdp.status.optimal": sum(s == "OPTIMAL" for _, _, s in self.sdp_solves),
            "sdp.stall_accepted": self.hermitian_statuses.count("ITERATION_LIMIT"),
            "sdp.build_s": incl.get("sdp.HermitianSdp.build", 0.0),
            "sdp.assemble_s": incl.get("sdp.HermitianSdp.add_matrix_equality", 0.0),
            "measures.e_nm_ppt.calls": calls.get("measures.e_nm_ppt", 0),
            "measures.e_nm_ppt.self_s": self_by_name.get("measures.e_nm_ppt", 0.0),
            "measures.negativity.self_s": self_by_name.get("measures.negativity", 0.0),
            "measures.rg_ppt_closed.self_s": self_by_name.get("measures.rg_ppt_closed", 0.0),
            "linalg.partial_transpose_s": incl.get("linalg.partial_transpose", 0.0),
            "linalg.eig_hermitian_s": incl.get("linalg.eig_hermitian", 0.0),
            "states.random_density_s": incl.get("states.random_density", 0.0),
            "cli.emit_csv_s": incl.get("cli._emit_csv", 0.0),
            "spin.xxx_hamiltonian.calls": calls.get("spin.xxx_hamiltonian", 0),
            "spin.xxx_hamiltonian_s": incl.get("spin.xxx_hamiltonian", 0.0),
            "spin.susceptibility.self_s": self_by_name.get("spin.susceptibility", 0.0),
            "spin.thermo_estimate.self_s": self_by_name.get("spin.thermo_estimate", 0.0),
            "spin.toth_witness_s": incl.get("spin.toth_witness", 0.0),
            "states.thermal.calls": calls.get("states.thermal", 0),
            "states.thermal_s": incl.get("states.thermal", 0.0),
            "witnesses.evaluate_s": incl.get("witnesses.evaluate", 0.0),
            "trace.spans": len(self.spans),
            "trace.hooks_missing": len(self.missing),
            "trace.self_sum_frac": sum(selfs.values()) / wall_s if wall_s > 0 else 0.0,
        }
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(
                t for name, t in self_by_name.items() if name.split(".")[0] == mod)
        return out


def self_times(spans) -> dict:
    """Self time per span id, splitting overlapping leaf time across threads.

    A sweep over span boundaries keeps the open spans and how many open
    children each has; the spans without open children share each
    interval's duration evenly.
    """
    events = []
    parent_of = {}
    for (sid, parent, _, _, t0, t1) in spans:
        parent_of[sid] = parent
        events.append((t0, 1, sid))
        events.append((t1, 0, sid))
    events.sort()
    open_children = {}
    leaves = set()
    out = dict.fromkeys(parent_of, 0.0)
    last = 0.0
    for t, is_start, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        last = t
        parent = parent_of[sid]
        if is_start:
            open_children[sid] = 0
            leaves.add(sid)
            if parent in open_children:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            del open_children[sid]
            leaves.discard(sid)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
