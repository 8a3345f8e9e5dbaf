"""Span tracer that wraps the package's public functions from outside.

While a ``Trace`` is entered, every public module-level function of the
layer modules, and the few methods in ``METHODS``, is replaced -- in every
loaded module of the package that refers to it -- by a wrapper that records
a span ``[name, start, end, parent]``.  Spans stay in memory until the run
ends.  Leaving the ``Trace`` puts the original functions back; no file of
the package is touched.

A layer's self time is the time of its spans minus the part covered by
their child spans.  ``ad`` is not wrapped: it runs inside the problem
callbacks, so its time is model self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from bootstrap import PACKAGE

LAYERS = (
    "solver",
    "numerics",
    "transcription",
    "model",
    "reconstruction",
    "residuals",
    "constants",
    "certify",
    "refine",
)
METHODS = {
    "numerics": {"LdlFactorization": ("__init__", "solve")},
    "reconstruction": {"PiecewisePoly": ("eval", "eval_derivative")},
}


def _is_model(trace, idx) -> bool:
    parent = trace.spans[idx][3]
    return parent >= 0 and trace.spans[parent][0].startswith("model.")


def _model_points(batch_arg):
    """Count evaluation points of model calls not made by another model call."""

    def probe(trace, idx, args, kwargs, result):
        if _is_model(trace, idx):
            return
        if batch_arg is None:
            points = 1
        else:
            X = args[batch_arg] if len(args) > batch_arg else kwargs["X"]
            points = np.atleast_2d(X).shape[0]
        trace.counts["model.points"] += points

    return probe


def _ldl(trace, idx, args, kwargs, result):
    dim = len(args[1])  # args[0] is the factorization being built
    trace.counts["numerics.ldl_calls"] += 1
    trace.counts["numerics.kkt_bytes_computed"] += 8 * dim**2
    trace.counts["numerics.kkt_flops_computed"] += dim**3 / 3
    trace.maxima["numerics.kkt_dim_max"] = max(trace.maxima["numerics.kkt_dim_max"], dim)


def _density(metric):
    """Nonzero fraction of the largest matrix the function returned."""

    def probe(trace, idx, args, kwargs, result):
        if result.size > trace.largest[metric][0]:
            trace.largest[metric] = (result.size, np.count_nonzero(result) / result.size)

    return probe


def _solve(trace, idx, args, kwargs, result):
    iterations = result[1].iterations
    trace.counts["solver.iterations"] += iterations
    warm = kwargs.get("initial_guess", args[4] if len(args) > 4 else None)
    if warm is not None:
        trace.counts["refine.warm_iterations"] += iterations


def _newton_step(trace, idx, args, kwargs, result):
    trace.counts["solver.newton_steps"] += 1
    if result[2] > 0.0:
        trace.counts["solver.regularized_steps"] += 1


def _curvature(trace, idx, args, kwargs, result):
    trace.maxima["certify.null_dim"] = max(trace.maxima["certify.null_dim"], result.null_dim)


def _certify_loop(trace, idx, args, kwargs, result):
    trace.counts["refine.rounds"] += len(result.history)
    trace.maxima["refine.final_n"] = max(
        trace.maxima["refine.final_n"], result.history[-1].n_intervals
    )


PROBES = {
    "numerics.LdlFactorization.__init__": _ldl,
    "transcription.eval_constraint_jacobian": _density("transcription.jac_nnz_frac"),
    "transcription.eval_lagrangian_hessian": _density("transcription.hess_nnz_frac"),
    "solver.solve": _solve,
    "solver.newton_step": _newton_step,
    "certify.reduced_curvature": _curvature,
    "refine.certify_loop": _certify_loop,
    "model.eval_dynamics": _model_points(None),
    "model.eval_hamiltonian": _model_points(None),
    "model.eval_endpoint_terms": _model_points(None),
    "model.dynamics_batch": _model_points(2),
    "model.running_cost_batch": _model_points(2),
    "model.hamiltonian_batch": _model_points(2),
}


class Trace:
    """Records spans and counts while entered; may be entered repeatedly."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        self.largest = defaultdict(lambda: (0, 0.0))
        self._stack = []
        self._patched = []

    def __enter__(self):
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if probe is not None:
                probe(self, idx, args, kwargs, result)
            return result

        return traced

    def self_times(self):
        """Self seconds per span name, self seconds per layer, root seconds."""
        child = [0.0] * len(self.spans)
        root = 0.0
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                root += end - start
        by_name = defaultdict(float)
        by_layer = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            own = end - start - child[i]
            by_name[name] += own
            by_layer[name.split(".", 1)[0]] += own
        return by_name, by_layer, root

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, per pass of the operation list: name -> (value, unit)."""
        by_name, by_layer, _ = self.self_times()
        counts = self.counts
        calls = Counter(name.split(".", 1)[0] for name, *_ in self.spans)
        ls_trials = sum(
            1
            for name, _, _, parent in self.spans
            if name == "transcription.eval_objective"
            and parent >= 0
            and self.spans[parent][0] == "solver.solve"
        ) - counts["solver.iterations"]  # each iteration also evaluates f at z

        def per(x):
            return x / passes

        model_points = per(counts["model.points"])
        return {
            "numerics.self_s": (per(by_layer["numerics"]), "s"),
            "numerics.ldl_s": (
                per(by_name["numerics.LdlFactorization.__init__"] + by_name["numerics.LdlFactorization.solve"]),
                "s",
            ),
            "numerics.ldl_calls": (per(counts["numerics.ldl_calls"]), "count"),
            "numerics.nullspace_s": (per(by_name["numerics.nullspace_basis"]), "s"),
            "numerics.sigma_min_s": (per(by_name["numerics.sigma_min"]), "s"),
            "numerics.kkt_dim_max": (self.maxima["numerics.kkt_dim_max"], "count"),
            "numerics.kkt_bytes_computed": (per(counts["numerics.kkt_bytes_computed"]), "bytes"),
            "numerics.kkt_flops_computed": (per(counts["numerics.kkt_flops_computed"]), "flop"),
            "solver.self_s": (per(by_layer["solver"]), "s"),
            "solver.iterations": (per(counts["solver.iterations"]), "count"),
            "solver.newton_steps": (per(counts["solver.newton_steps"]), "count"),
            "solver.regularized_steps": (per(counts["solver.regularized_steps"]), "count"),
            "solver.ls_trials": (per(ls_trials), "count"),
            "solver.step_accept_ratio": (
                counts["solver.iterations"] / ls_trials if ls_trials else 0.0,
                "ratio",
            ),
            "certify.self_s": (per(by_layer["certify"]), "s"),
            "certify.curvature_s": (per(by_name["certify.reduced_curvature"]), "s"),
            "certify.null_dim": (self.maxima["certify.null_dim"], "count"),
            "model.self_s": (per(by_layer["model"]), "s"),
            "model.calls": (per(calls["model"]), "count"),
            "model.points": (model_points, "count"),
            "model.us_per_point": (
                1e6 * per(by_layer["model"]) / model_points if model_points else 0.0,
                "us",
            ),
            "constants.self_s": (per(by_layer["constants"]), "s"),
            "constants.tube_s": (per(by_name["constants.estimate_curvature_bounds"]), "s"),
            "constants.geo_s": (per(by_name["constants.estimate_C_geo"]), "s"),
            "transcription.self_s": (per(by_layer["transcription"]), "s"),
            "transcription.calls": (per(calls["transcription"]), "count"),
            "transcription.jac_nnz_frac": (self.largest["transcription.jac_nnz_frac"][1], "ratio"),
            "transcription.hess_nnz_frac": (self.largest["transcription.hess_nnz_frac"][1], "ratio"),
            "residuals.self_s": (per(by_layer["residuals"]), "s"),
            "reconstruction.self_s": (per(by_layer["reconstruction"]), "s"),
            "refine.rounds": (per(counts["refine.rounds"]), "count"),
            "refine.final_n": (self.maxima["refine.final_n"], "count"),
            "refine.warm_iterations": (per(counts["refine.warm_iterations"]), "count"),
        }
