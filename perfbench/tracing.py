"""Spans recorded by the benchmark around its own calls into dgtime.

Nothing inside ``dgtime`` is patched.  Coarse spans wrap each public call
the benchmark makes into a layer; the data callables of a system are timed
by handing the solver a ``dataclasses.replace`` of the system whose ``f``,
``g1``, ``g2``, ``exact_u`` and ``exact_p`` are wrapped.  Those data spans
may run on ``run_study``'s pool threads, so they are kept per thread in
flat arrays (one call of a stokes3 study pass makes about 600k of them).

Self time of a coarse span is its duration minus the union of its
children's intervals.  Data spans are leaves; where data spans of several
threads overlap in time, each instant is split evenly between them, so the
self times of all spans of a pass add up to the time the spans cover.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from array import array
from contextlib import contextmanager, nullcontext

import numpy as np

DATA_FIELDS = ("f", "g1", "g2")
EXACT_FIELDS = ("exact_u", "exact_p")
CALLABLE_FIELDS = DATA_FIELDS + EXACT_FIELDS


class NullTracer:
    """Tracing off: spans cost one no-op context, systems stay unwrapped."""

    enabled = False

    def span(self, name):
        return nullcontext()

    def wrap_system(self, system):
        return system


class Tracer:
    """Collects coarse and data spans pass by pass, in memory."""

    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.passes = []          # finished passes: dict of numpy arrays
        self._coarse = []         # [name, t0, t1] of the open pass
        self._open = -1           # index of the open coarse span, -1 = pass root
        self._bufs = {}           # thread id -> array('d') of (kind, parent, t0, t1)
        self._pass_t0 = None

    # -- pass and coarse spans (main thread only) -------------------------

    def begin_pass(self):
        self._coarse = []
        self._open = -1
        self._bufs = {}
        self._pass_t0 = time.perf_counter()

    def end_pass(self):
        t1 = time.perf_counter()
        tids = sorted(self._bufs)
        chunks = [np.frombuffer(self._bufs[t], dtype=float).reshape(-1, 4) for t in tids]
        data = np.concatenate(chunks) if chunks else np.empty((0, 4))
        thread = np.repeat(np.arange(len(chunks)), [len(c) for c in chunks])
        self.passes.append({
            "t0": self._pass_t0, "t1": t1,
            "coarse_names": [c[0] for c in self._coarse],
            "coarse": np.array([c[1:] for c in self._coarse], dtype=float).reshape(-1, 2),
            "kind": data[:, 0].astype(np.int8),
            "parent": data[:, 1].astype(np.int32),
            "data": data[:, 2:].copy(),
            "thread": thread.astype(np.int8),
            "tids": np.array(tids, dtype=np.int64),
        })
        self._bufs = {}

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0]
        self._coarse.append(rec)
        self._open = len(self._coarse) - 1
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open = -1

    # -- data spans (any thread) ------------------------------------------

    def _wrap(self, fn, kind: int):
        clock = time.perf_counter
        ident = threading.get_ident

        def traced(t):
            t0 = clock()
            try:
                return fn(t)
            finally:
                t1 = clock()
                bufs = self._bufs
                buf = bufs.get(ident())
                if buf is None:
                    buf = bufs[ident()] = array("d")
                buf.extend((kind, self._open, t0, t1))

        return traced

    def wrap_system(self, system):
        wrapped = {name: self._wrap(getattr(system, name), kind)
                   for kind, name in enumerate(CALLABLE_FIELDS)
                   if getattr(system, name) is not None}
        return dataclasses.replace(system, **wrapped)

    # -- output ----------------------------------------------------------

    def write(self, path):
        """All spans of all traced passes, one row per span, as an .npz file.

        Columns: name (index into ``names``), start and end (perf_counter
        seconds), parent (row index, -1 for none), thread id and pass
        index.  Each pass has a root span ``bench.pass``.
        """
        names = ["bench.pass"] + [f"systems.{f}" for f in CALLABLE_FIELDS]
        cols = {k: [] for k in ("name", "start", "end", "parent", "tid", "pass")}
        main_tid = threading.get_ident()
        root = 0
        for p_idx, p in enumerate(self.passes):
            names += [n for n in dict.fromkeys(p["coarse_names"]) if n not in names]
            nc, nd = len(p["coarse_names"]), len(p["kind"])
            cols["name"].append(np.r_[0, [names.index(n) for n in p["coarse_names"]],
                                      1 + p["kind"].astype(int)])
            cols["start"].append(np.r_[p["t0"], p["coarse"][:, 0], p["data"][:, 0]])
            cols["end"].append(np.r_[p["t1"], p["coarse"][:, 1], p["data"][:, 1]])
            cols["parent"].append(np.r_[-1, np.full(nc, root),
                                        np.where(p["parent"] >= 0, root + 1 + p["parent"], root)])
            cols["tid"].append(np.r_[np.full(1 + nc, main_tid), p["tids"][p["thread"]]])
            cols["pass"].append(np.full(1 + nc + nd, p_idx))
            root += 1 + nc + nd
        arrays = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
        np.savez(path, names=np.array(names), workload=np.array(self.workload), **arrays)


def union_length(iv: np.ndarray) -> float:
    """Measure of the union of intervals given as rows (start, end)."""
    if iv.shape[0] == 0:
        return 0.0
    iv = iv[np.argsort(iv[:, 0], kind="stable")]
    reach = np.maximum.accumulate(iv[:, 1])
    new = np.empty(iv.shape[0], dtype=bool)
    new[0] = True
    new[1:] = iv[1:, 0] > reach[:-1]
    starts = iv[new, 0]
    seg_last = np.r_[np.flatnonzero(new)[1:] - 1, iv.shape[0] - 1]
    return float((reach[seg_last] - starts).sum())


def split_self(iv: np.ndarray) -> np.ndarray:
    """Self time of leaf spans, splitting overlapped instants evenly."""
    n = iv.shape[0]
    if n == 0:
        return np.empty(0)
    ev = np.concatenate([iv[:, 0], iv[:, 1]])
    order = np.argsort(ev, kind="stable")
    step = np.concatenate([np.ones(n), -np.ones(n)])[order]
    active = np.cumsum(step)[:-1]
    dt = np.diff(ev[order])
    share = np.divide(dt, active, out=np.zeros_like(dt), where=active > 0)
    acc = np.concatenate([[0.0], np.cumsum(share)])
    pos = np.empty(2 * n, dtype=int)
    pos[order] = np.arange(2 * n)
    return acc[pos[n:]] - acc[pos[:n]]


def pass_layers(p: dict) -> dict:
    """Per-layer numbers of one traced pass."""
    kind, parent, data = p["kind"], p["parent"], p["data"]
    dself = split_self(data)
    is_data = np.isin(kind, [CALLABLE_FIELDS.index(f) for f in DATA_FIELDS])
    is_exact = ~is_data
    durs = p["coarse"][:, 1] - p["coarse"][:, 0]
    selfs = np.array([durs[i] - union_length(data[parent == i])
                      for i in range(len(durs))])
    names = p["coarse_names"]

    def total(values, *wanted):
        return float(sum(v for v, nm in zip(values, names) if nm in wanted))

    wall = p["t1"] - p["t0"]
    return {
        "systems.data_calls": int(is_data.sum()),
        "systems.data_s": float(dself[is_data].sum()),
        "systems.exact_calls": int(is_exact.sum()),
        "systems.exact_s": float(dself[is_exact].sum()),
        "dgsolver.solve_s": total(durs, "dgsolver.solve_constrained"),
        "dgsolver.self_s": total(selfs, "dgsolver.solve_constrained"),
        "dgsolver.residual_s": total(durs, "dgsolver.constraint_residual",
                                     "dgsolver.dg_residual"),
        "analysis.err_energy_s": total(durs, "analysis.error_l2_energy"),
        "analysis.err_nodal_s": total(durs, "analysis.error_nodal_max"),
        "analysis.err_p_s": total(durs, "analysis.error_l2_multiplier"),
        "analysis.study_s": total(durs, "analysis.run_study"),
        "analysis.study_self_s": total(selfs, "analysis.run_study"),
        "timecore.dh_form_s": total(durs, "timecore.dh_form"),
        "cli.format_s": total(durs, "cli.format_csv"),
        "trace.accounted_share": (float(selfs.sum()) + float(dself.sum())) / wall,
    }
