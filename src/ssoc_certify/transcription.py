"""Collocation transcription: decision vector, defects, Jacobian, Hessian.

Two schemes are supported:

* trapezoidal: states/controls at mesh nodes, one integrated defect per
  interval, trapezoid quadrature for the running cost;
* hermite-simpson (separated form): states/controls at nodes and interval
  midpoints, a Simpson defect plus a Hermite midpoint constraint per
  interval, Simpson quadrature for the running cost.

Boundary equations b(x_0, x_N) = 0 and, when the problem fixes the initial
state, the rows x_0 - x0 = 0 are appended after the interval constraints.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse

from . import model
from .errors import DimensionError, MeshError, is_number

TRAPEZOIDAL = "trapezoidal"
HERMITE_SIMPSON = "hermite-simpson"


@dataclass(frozen=True)
class Scheme:
    """Collocation scheme descriptor.

    ``degree`` is the exponent p of the conformity bound
    ``C_Tprime = c_Pi * L2 * h_max**p`` (1 for trapezoidal, 3 for
    Hermite-Simpson), its only use; it is not the degree of the state
    reconstruction, which is cubic Hermite for both schemes.  ``lebesgue``
    is the interpolation stability constant used by the certification
    bounds (2 covers piecewise linear and cubic Hermite).

    The remaining fields are the per-interval coefficient table that every
    scheme-dependent formula is derived from.  Interval k owns the samples
    ``stride*k + p`` for ``p = 0..stride`` (its two nodes and, with stride 2,
    its midpoint).  Row block r of its constraints is
    ``sum_p state[r][p] x_p + h_k sum_p flow[r][p] f_p`` over those samples,
    and sample p adds ``quad[p] * h_k`` to the running-cost weights.
    """

    kind: str
    degree: int
    stride: int
    state: tuple
    flow: tuple
    quad: tuple
    lebesgue: float = 2.0

    @property
    def blocks(self):
        """Constraint row blocks per interval."""
        return len(self.state)


SCHEMES = {
    TRAPEZOIDAL: Scheme(
        TRAPEZOIDAL,
        1,
        stride=1,
        state=((-1.0, 1.0),),
        flow=((-0.5, -0.5),),
        quad=(0.5, 0.5),
    ),
    # a Simpson defect block, then the Hermite midpoint block
    HERMITE_SIMPSON: Scheme(
        HERMITE_SIMPSON,
        3,
        stride=2,
        state=((-1.0, 0.0, 1.0), (-0.5, 1.0, -0.5)),
        flow=((-1.0 / 6.0, -4.0 / 6.0, -1.0 / 6.0), (-1.0 / 8.0, 0.0, 1.0 / 8.0)),
        quad=(1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0),
    ),
}


def parse_scheme(kind) -> Scheme:
    """The registered scheme named ``kind``, or ``kind`` itself when registered.

    Other tables are refused: the compressed collocation Jacobian assumes
    the registered order of the row blocks.
    """
    if isinstance(kind, Scheme) and kind in SCHEMES.values():
        return kind
    try:
        return SCHEMES[kind]
    except (KeyError, TypeError):
        raise MeshError(
            f"unknown scheme {kind!r}; available: {', '.join(sorted(SCHEMES))}"
        ) from None


class Mesh:
    """Strictly increasing time nodes t_0 = 0 < ... < t_N = T."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise MeshError("mesh needs at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise MeshError("mesh nodes must be finite")
        if nodes[0] != 0.0:
            raise MeshError("mesh must start at t = 0")
        if np.any(np.diff(nodes) <= 0):
            raise MeshError("mesh nodes must be strictly increasing")
        self.nodes = nodes

    @classmethod
    def uniform(cls, T, n_intervals):
        if not (is_number(n_intervals, numbers.Integral) and n_intervals >= 1):
            raise MeshError(f"need an integer count of at least one interval, got {n_intervals!r}")
        return cls(np.linspace(0.0, float(T), n_intervals + 1))

    @property
    def T(self):
        return float(self.nodes[-1])

    @property
    def n_intervals(self):
        return self.nodes.size - 1

    @property
    def h(self):
        return np.diff(self.nodes)

    def bisect(self, interval_indices) -> "Mesh":
        """New mesh with the given intervals split at their midpoints.

        An interval listed more than once is split once.
        """
        idx = np.asarray(interval_indices)
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise MeshError("interval indices must be integers")
        idx = np.unique(idx.astype(int))
        bad = idx[(idx < 0) | (idx >= self.n_intervals)]
        if bad.size:
            raise MeshError(
                f"interval indices {bad.tolist()} out of range for "
                f"{self.n_intervals} intervals"
            )
        extra = 0.5 * (self.nodes[idx] + self.nodes[idx + 1])
        return Mesh(np.sort(np.concatenate([self.nodes, extra])))


@dataclass
class NlpLayout:
    """Index bookkeeping for the flat decision vector z and constraints c.

    Samples are time-ordered; each sample point carries an (n + m) block of
    states followed by controls. ``sample_times`` includes interval midpoints
    for Hermite-Simpson.
    """

    mesh: Mesh
    scheme: Scheme
    n: int
    m: int
    n_b: int
    fixed_x0: bool
    sample_times: np.ndarray
    n_z: int = field(init=False)
    n_c: int = field(init=False)

    def __post_init__(self):
        self.n_z = self.n_samples * (self.n + self.m)
        self.n_c = self.n_defect_rows + self.n_b + (self.n if self.fixed_x0 else 0)

    @property
    def n_samples(self):
        return self.sample_times.size

    @property
    def n_nodes(self):
        return self.mesh.n_intervals + 1

    @property
    def n_defect_rows(self):
        """Rows of the interval constraints, which come first in c."""
        return self.mesh.n_intervals * self.scheme.blocks * self.n

    @property
    def interval_samples(self):
        """(N, stride + 1) sample indices owned by each interval."""
        stride = self.scheme.stride
        return stride * np.arange(self.mesh.n_intervals)[:, None] + np.arange(stride + 1)

    def node_sample(self, k):
        """Sample index of mesh node k (k may be an index array)."""
        return self.scheme.stride * k

    def state_slice(self, j):
        base = j * (self.n + self.m)
        return slice(base, base + self.n)

    @property
    def boundary_rows(self):
        base = self.n_defect_rows
        return slice(base, base + self.n_b)

    @property
    def x0_rows(self):
        base = self.n_defect_rows + self.n_b
        return slice(base, base + (self.n if self.fixed_x0 else 0))

    def pack(self, X, U):
        """Stack sample states (S, n) and controls (S, m) into z."""
        X = np.asarray(X, dtype=float)
        U = np.asarray(U, dtype=float)
        if X.shape != (self.n_samples, self.n) or U.shape != (self.n_samples, self.m):
            raise DimensionError("pack: sample arrays have wrong shape")
        return np.hstack([X, U]).reshape(-1)

    def unpack(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n_z,):
            raise DimensionError("unpack: z has wrong length")
        blocks = z.reshape(self.n_samples, self.n + self.m)
        return blocks[:, : self.n].copy(), blocks[:, self.n :].copy()


def assemble(prob: model.OcpProblem, mesh: Mesh, scheme) -> NlpLayout:
    """Build the NLP layout for a problem/mesh/scheme triple."""
    scheme = parse_scheme(scheme)
    if abs(mesh.T - prob.T) > 1e-12 * max(1.0, prob.T):
        raise MeshError("mesh horizon does not match the problem horizon")
    # sample p of interval k sits at (1 - theta) t_k + theta t_{k+1}, theta = p / stride
    nodes = mesh.nodes
    theta = np.arange(scheme.stride) / scheme.stride
    inner = (1.0 - theta) * nodes[:-1, None] + theta * nodes[1:, None]
    times = np.append(inner.ravel(), nodes[-1])
    return NlpLayout(
        mesh=mesh,
        scheme=scheme,
        n=prob.n,
        m=prob.m,
        n_b=prob.n_b,
        fixed_x0=prob.x0 is not None,
        sample_times=times,
    )


def _scatter_to_samples(layout, per_interval):
    """Add (N, P, ...) per-interval contributions onto their samples."""
    out = np.zeros((layout.n_samples,) + per_interval.shape[2:])
    np.add.at(out, layout.interval_samples, per_interval)
    return out


def quadrature_weights(layout: NlpLayout) -> np.ndarray:
    """Per-sample running-cost quadrature weights (sum equals T)."""
    h = layout.mesh.h
    return _scatter_to_samples(layout, h[:, None] * np.asarray(layout.scheme.quad))


def _objective(w, L, ept) -> float:
    """Quadrature of the running cost values L plus the endpoint cost."""
    return float(np.dot(w, L) + ept.K)


def eval_objective(prob, layout, z) -> float:
    X, U = layout.unpack(z)
    w = quadrature_weights(layout)
    L = model.running_cost_batch(prob, layout.sample_times, X, U)
    return _objective(w, L, model.eval_endpoint_terms(prob, X[0], X[-1], order=0))


def _defects(prob, layout, X, F, ept):
    """Equality constraints from the sample dynamics; ``ept`` may be None when n_b = 0."""
    scheme = layout.scheme
    picked = layout.interval_samples
    state = np.einsum("rp,kpi->kri", np.asarray(scheme.state), X[picked])
    flow = np.einsum("rp,kpi->kri", np.asarray(scheme.flow), F[picked])
    c = np.zeros(layout.n_c)
    c[: layout.n_defect_rows] = (state + layout.mesh.h[:, None, None] * flow).reshape(-1)
    if layout.n_b > 0:
        c[layout.boundary_rows] = ept.b
    if layout.fixed_x0:
        c[layout.x0_rows] = X[0] - prob.x0
    return c


def eval_defects(prob, layout, z) -> np.ndarray:
    """All equality constraints at z (defects, boundary, fixed initial state)."""
    X, U = layout.unpack(z)
    F = model.dynamics_batch(prob, layout.sample_times, X, U)
    ept = model.eval_endpoint_terms(prob, X[0], X[-1], order=0) if layout.n_b > 0 else None
    return _defects(prob, layout, X, F, ept)


def _sparse(shape, *parts):
    """CSR matrix from (rows, cols, values) parts; duplicate entries add up.

    The three arrays of a part are broadcast against each other first.
    Exact zeros are dropped: adding one changes no sum.
    """
    triplets = [np.broadcast_arrays(*part) for part in parts]
    rows, cols, vals = (
        np.concatenate([t[i].ravel() for t in triplets]) for i in range(3)
    )
    keep = vals != 0.0
    return scipy.sparse.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=shape
    ).tocsr()


def _endpoint_states(layout):
    """Indices in z of the first and the last state sample, stacked."""
    last = (layout.n_samples - 1) * (layout.n + layout.m)
    return np.concatenate([np.arange(layout.n), last + np.arange(layout.n)])


def _constraint_jacobian(layout, Fx, Fu, ept):
    """Jacobian of the constraints from the sample dynamics Jacobians.

    Each nonzero ``flow`` coefficient of the scheme places a dense
    n x (n + m) block ``h_k flow[r][p] [f_x f_u]`` per interval, and each
    nonzero ``state`` coefficient a multiple of the identity.  ``ept`` may
    be None when n_b = 0.
    """
    n, nm = layout.n, layout.n + layout.m
    scheme = layout.scheme
    state, flow = np.asarray(scheme.state), np.asarray(scheme.flow)
    samples = layout.interval_samples
    N = layout.mesh.n_intervals
    first_row = n * (scheme.blocks * np.arange(N)[:, None] + np.arange(scheme.blocks))
    i = np.arange(n)
    r_f, p_f = np.nonzero(flow)
    r_s, p_s = np.nonzero(state)
    parts = [
        (
            first_row[:, r_f, None, None] + i[:, None],
            nm * samples[:, p_f, None, None] + np.arange(nm),
            (layout.mesh.h[:, None] * flow[r_f, p_f])[:, :, None, None]
            * np.concatenate([Fx, Fu], axis=2)[samples[:, p_f]],
        ),
        (
            first_row[:, r_s, None] + i,
            nm * samples[:, p_s, None] + i,
            state[r_s, p_s][:, None],
        ),
    ]
    if layout.n_b > 0:
        rows = layout.boundary_rows.start + np.arange(layout.n_b)
        parts.append(
            (rows[:, None], _endpoint_states(layout), np.hstack([ept.b_x0, ept.b_xT]))
        )
    if layout.fixed_x0:
        parts.append((layout.x0_rows.start + i, i, 1.0))
    return _sparse((layout.n_c, layout.n_z), *parts)


def compress_collocation_jacobian(layout, J) -> scipy.sparse.csr_matrix:
    """Jacobian of the collocation equations in compressed form, from J.

    For Hermite-Simpson the midpoint states are eliminated through the
    Hermite relation, leaving one defect row block per interval over node
    states and all control samples; trapezoidal is already node-based.
    Boundary and fixed-initial-state rows are kept.  This is the matrix
    whose smallest singular value feeds the geometric constant.
    """
    if layout.scheme.stride == 1:
        return J
    # the second row block of each interval pins its midpoint state with an
    # identity coefficient, so substituting it removes the midpoint columns
    n, nm = layout.n, layout.n + layout.m
    N = layout.mesh.n_intervals
    rows = np.arange(layout.n_defect_rows).reshape(N, 2, n)
    simpson = J[rows[:, 0].ravel()]
    hermite = J[rows[:, 1].ravel()]
    mid_cols = (nm * layout.interval_samples[:, 1, None] + np.arange(n)).ravel()
    compressed = scipy.sparse.vstack(
        [simpson - simpson[:, mid_cols] @ hermite, J[layout.n_defect_rows :]],
        format="csr",
    )
    keep = np.ones(layout.n_z, dtype=bool)
    keep[mid_cols] = False
    return compressed[:, np.flatnonzero(keep)]


def split_multipliers(layout: NlpLayout, nu_all):
    """Split the raw multiplier vector into (defect part, lambda)."""
    nu_all = np.asarray(nu_all, dtype=float)
    if nu_all.shape != (layout.n_c,):
        raise DimensionError("multiplier vector has wrong length")
    return nu_all[: layout.n_defect_rows], nu_all[layout.boundary_rows]


def sample_multipliers(layout: NlpLayout, nu_all) -> np.ndarray:
    """Accumulated dynamics multiplier s_j for every sample point.

    s_j collects the coefficients with which f(t_j, x_j, u_j) enters the
    constraint rows, weighted by the corresponding multipliers.  It drives
    both the Hessian assembly and the per-point costate scaling: the
    stationarity costate at sample j is s_j / w_j with w_j the running-cost
    quadrature weight.
    """
    nu_defect, _ = split_multipliers(layout, nu_all)
    scheme = layout.scheme
    nu = nu_defect.reshape(layout.mesh.n_intervals, scheme.blocks, layout.n)
    per_interval = layout.mesh.h[:, None, None] * np.einsum(
        "rp,kri->kpi", np.asarray(scheme.flow), nu
    )
    return _scatter_to_samples(layout, per_interval)


def _lagrangian_hessian(layout, w, S, Lh, Hf, ept):
    """Lagrangian Hessian from the sample Hessians and the endpoint terms.

    One (n + m) block per sample on the diagonal, plus the endpoint terms
    over the first and the last state sample, corner blocks included.
    """
    blocks = w[:, None, None] * Lh + np.einsum("bi,bijk->bjk", S, Hf)
    nm = layout.n + layout.m
    base = nm * np.arange(layout.n_samples)[:, None, None]
    ends = _endpoint_states(layout)
    return _sparse(
        (layout.n_z, layout.n_z),
        (base + np.arange(nm)[:, None], base + np.arange(nm), blocks),
        (ends[:, None], ends, ept.lagr_hess),
    )


def eval_kkt(prob, layout, z, nu_all):
    """(f, g, c, J, W) at (z, nu): objective, objective gradient,
    constraints, sparse constraint Jacobian and sparse Lagrangian Hessian.

    One order-2 model batch over the samples and one endpoint evaluation
    serve all five; f equals :func:`eval_objective` bitwise.  This is the
    only evaluator of g, J and W; f and c alone, as the line search needs
    them, come from :func:`eval_objective` and :func:`eval_defects`, which
    evaluate the callbacks on plain values.
    """
    X, U = layout.unpack(z)
    _, lam = split_multipliers(layout, nu_all)
    w = quadrature_weights(layout)
    F, Fx, Fu, Hf = model.dynamics_batch(prob, layout.sample_times, X, U, order=2)
    L, Lg, Lh = model.running_cost_batch(prob, layout.sample_times, X, U, order=2)
    ept = model.eval_endpoint_terms(prob, X[0], X[-1], lam)
    g = (w[:, None] * Lg).reshape(-1)
    g[layout.state_slice(0)] += ept.K_x0
    g[layout.state_slice(layout.n_samples - 1)] += ept.K_xT
    return (
        _objective(w, L, ept),
        g,
        _defects(prob, layout, X, F, ept),
        _constraint_jacobian(layout, Fx, Fu, ept),
        _lagrangian_hessian(layout, w, sample_multipliers(layout, nu_all), Lh, Hf, ept),
    )


def variation_gram_sparse(layout: NlpLayout) -> scipy.sparse.csr_matrix:
    """Gram matrix of the discrete product norm on the decision space.

    Quadrature weights on the state/control samples realize the L2 part;
    identity blocks at the first and last state samples add the endpoint
    terms |dx(0)|^2 + |dx(T)|^2.
    """
    diag = np.repeat(quadrature_weights(layout), layout.n + layout.m)
    idx = np.arange(layout.n_z)
    ends = _endpoint_states(layout)
    return _sparse((layout.n_z, layout.n_z), (idx, idx, diag), (ends, ends, 1.0))


@dataclass
class DiscreteKkt:
    """Discrete primal-dual point produced by the solver.

    The costates are not part of it: :func:`reconstruction.reconstruct`
    extracts them from (z, nu).
    """

    layout: NlpLayout
    z: np.ndarray
    nu: np.ndarray  # raw multiplier vector, length n_c
    converged: bool
    # sparse constraint Jacobian and Lagrangian Hessian at (z, nu), kept from
    # the solver's last evaluation; not init fields, so dataclasses.replace,
    # which may move z, drops them
    J: Optional[scipy.sparse.csr_matrix] = field(default=None, init=False, repr=False)
    W: Optional[scipy.sparse.csr_matrix] = field(default=None, init=False, repr=False)

    def kkt_matrices(self, prob):
        """(J, W) at (z, nu), evaluated here only when the solver kept none."""
        if self.J is None:
            _, _, _, self.J, self.W = eval_kkt(prob, self.layout, self.z, self.nu)
        return self.J, self.W

    @property
    def x(self):
        """(S, n) sample states."""
        return self.layout.unpack(self.z)[0]

    @property
    def u(self):
        """(S, m) sample controls."""
        return self.layout.unpack(self.z)[1]

    @property
    def lam(self):
        """(n_b,) boundary multipliers."""
        return split_multipliers(self.layout, self.nu)[1]
