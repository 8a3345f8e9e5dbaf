"""Estimation of the certification constants from discrete data.

The state and control directions of the tube around the reconstruction are
sampled in blocks of ``TIME_SAMPLES_PER_INTERVAL * N`` uniform times over
[0, T] (N mesh intervals; a graded mesh's short intervals may hold one
sample or none): the reconstruction, each full-radius and each half-radius
axis offset of it, in model batches of whole blocks.  One rule, from the
input masks of :func:`model.dependency_masks`, decides which blocks are
evaluated and which bounds read them: an offset along an axis outside a
mask leaves the arrays the mask covers bitwise equal to the
reconstruction's, so a block is read for the dynamics' Jacobian in u only
when its axis is in their gradient mask (full-radius blocks only), for
the dynamics' Hessians only when it is in their Hessian mask, and for the
running cost's Hessian only when it is in its Hessian mask; a block read
for none is dropped, and the bounds are those of the full tube, bitwise.
The dynamics' Hessians are read only for the outputs that the probe finds
curved; every other output's Hessian is zero throughout the tube (see
:func:`model.dependency_masks`) and adds nothing to any norm, sum or max.
The costate direction is bounded over the whole dp-box instead: the
Hamiltonian is affine in p, so Weyl's inequality turns lambda_min(H_uu)
and ||H_ux|| at the centre costate into bounds that hold for every costate
in the box.
Lipschitz constants of second derivatives come from difference quotients at
half-radius offsets and carry the factor ``SAFETY_FACTOR`` because sampled
quotients lower-bound the true sup.

Every sup of spectral norms over a stack of sampled matrices (the M2f,
L21_f, L21_L, L2 and L21_K terms, A_inf, B_inf, H_up_inf, and H_ux_inf row
by row with the bound ||H_ux||_F + dp * sum_i ||(Hf_i)_ux||_F) is pruned
by a Frobenius bound, since ||A||_2 <= ||A||_F: the norm of the entry with
the largest bound is computed first, then only the norms of entries whose
bound times 1 + ``PRUNE_SLACK`` reaches the running sup.  The slack covers
the rounding of both computed norms, so each sup is bitwise the unpruned
one.  rho is not pruned: it is a min of lambda_min minus a Weyl spread,
whose Gershgorin bound ties across the quadrotor's samples, so no entry
would be skipped.  ``FORMULAS`` is the only definition of
each derived constant: :func:`derive` evaluates its expressions over the
sampled constants, and the bundle serializes them with the prose of
``SAMPLED``.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse

from . import model, transcription
from .errors import (
    ContractError, EvaluationDomainError, LegendreViolationError, SettingsError,
    StrongRegularityError, is_number,
)
from .numerics import sigma_min

# multiplier on the sampled Lipschitz difference quotients
SAFETY_FACTOR = 1.5
# tube time samples per mesh interval, on a uniform grid over [0, T]
TIME_SAMPLES_PER_INTERVAL = 4
# rows per model batch of the tube, which holds whole blocks of one offset
# each (one block where a block is longer), so its peak memory stays bounded
TUBE_BATCH_ROWS = 512
# Relative slack of the Frobenius bound in a pruned sup: a computed spectral
# norm can exceed, and a computed Frobenius norm fall short of, the exact
# value by a few k * eps for k x k matrices (below 1e-13 for the tube's at
# most 64 x 64 stacks), far below this slack.
PRUNE_SLACK = 1e-10
# A sup is pruned only between 1 / PRUNE_RANGE and PRUNE_RANGE: there no
# square of an entry or Gram product overflows, and an underflowed one
# moves a norm by less than 1e-20 of the sup.
PRUNE_RANGE = 1e140

# The derived constants in evaluation order, over the sampled fields, the
# entries above, T, h_max and p (the scheme degree).  C_quad's growth factor is
# linear in T, not exponential like C_T's: it bounds a local O(h^2) error.
FORMULAS = {
    "C_int": "max(T, 1)",
    "L21_H": "L21_L + P_max * L21_f",
    "C_geo": "1 / sigma_min_Mh",
    "C_T": "c_Pi * exp(A_inf * T) * (1 + B_inf / rho)",
    "C_quad": "h_max**2 / 12 * L21_H * (1 + A_inf * T + B_inf / rho)**2",
    "C_Tprime": "c_Pi * L2 * h_max**p",
    "Gamma": "C_geo * L2",
    "Lambda": "C_int * (L21_H + M2f) + 2 * L21_K",
    "C_xp_inf": "C_geo * (1 + T) * exp((A_inf + B_inf) * T)",
    "C_u_inf": "(H_ux_inf + H_up_inf) * C_xp_inf / rho + 1 / rho",
    "C_close_inf": "C_xp_inf + C_u_inf",
    "Gamma_tot": "Gamma + C_quad + C_Tprime",
}
# how the tube samples the constants that no formula derives
SAMPLED = {
    "L21_f": "safety * max ||d2f(c + r/2 e) - d2f(c)|| / (r/2)",
    "L21_L": "safety * max ||d2L(c + r/2 e) - d2L(c)|| / (r/2)",
    "L21_K": "safety * max ||d2K(c + r/2 e) - d2K(c)|| / (r/2)",
    "rho": "min_samples lambda_min(H_uu(p_c)) - dp * sum_i ||(Hf_i)_uu||",
    "H_ux_inf": "max_samples ||H_ux(p_c)|| + dp * sum_i ||(Hf_i)_ux||",
    "P_max": "max_samples ||p_c|| + dp",
}


@dataclass
class TubeSpec:
    """Radii of the tube around the reconstruction."""

    dx: float = 0.1
    du: float = 0.1
    dp: float = 0.1

    def __post_init__(self):
        radii = (self.dx, self.du, self.dp)
        if not all(is_number(r) and math.isfinite(r) and r > 0 for r in radii):
            raise SettingsError(f"tube radii must be finite and positive, got {radii}")


@dataclass
class ConstantsBundle:
    """Every constant entering the certification inequality."""

    rho: float = math.nan
    L2: float = math.nan
    M2f: float = math.nan
    L21_f: float = math.nan
    L21_L: float = math.nan
    L21_K: float = math.nan
    L21_H: float = math.nan
    P_max: float = math.nan
    C_int: float = math.nan
    c_Pi: float = math.nan
    A_inf: float = math.nan
    B_inf: float = math.nan
    H_ux_inf: float = math.nan
    H_up_inf: float = math.nan
    sigma_min_Mh: float = math.nan
    C_geo: float = math.nan
    C_T: float = math.nan
    C_quad: float = math.nan
    C_Tprime: float = math.nan
    Gamma: float = math.nan
    Gamma_tot: float = math.nan
    Lambda: float = math.nan
    C_xp_inf: float = math.nan
    C_u_inf: float = math.nan
    C_close_inf: float = math.nan
    safety_factor: float = SAFETY_FACTOR
    tube: Optional[TubeSpec] = None
    paper_constants: bool = False
    formulas: dict = field(default_factory=lambda: {**SAMPLED, **FORMULAS})

    def to_dict(self):
        return asdict(self)


def _eigvalsh(stack):
    """Ascending eigenvalues of each symmetric matrix in a (..., k, k) stack;
    all NaN when an entry is not finite, where LAPACK may return finite
    values or fail."""
    if not np.isfinite(stack).all():
        return np.full(stack.shape[:-1], np.nan)
    return np.linalg.eigvalsh(stack)


def _max(*values):
    """max(values), but NaN when one is NaN, which Python's max may drop."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _spectral_norms(stack):
    """Spectral norm of each matrix in a (..., k, l) stack.

    The square root of the largest eigenvalue of the smaller Gram matrix,
    A A^T or A^T A.
    """
    if stack.size == 0:
        return np.zeros(stack.shape[:-2])
    trans = np.swapaxes(stack, -1, -2)
    gram = stack @ trans if stack.shape[-2] <= stack.shape[-1] else trans @ stack
    return np.sqrt(np.maximum(_eigvalsh(gram)[..., -1], 0.0))


def _sym_spectral_norms(stack):
    """Spectral norm of each symmetric matrix in a (..., k, k) stack: max |eigenvalue|."""
    if stack.size == 0:
        return np.zeros(stack.shape[:-2])
    eigs = _eigvalsh(stack)
    return np.maximum(-eigs[..., 0], eigs[..., -1])


def _frobenius(stack):
    """Frobenius norm of each matrix in a (..., k, l) stack."""
    return np.sqrt(np.einsum("...ij,...ij->...", stack, stack))


def _sup(norms, stack, floor, bounds=None):
    """max(floor, max(norms(stack))), bitwise, reading ``norms`` only where
    it can reach that value.

    ``norms`` maps ``stack``, indexed along the leading axes of ``bounds``,
    to one value per entry; ``bounds`` bounds those values from above and
    defaults to the Frobenius norms of a matrix stack (||A||_2 <= ||A||_F).
    The entry of the largest bound is read first, then every entry whose
    bound times 1 + PRUNE_SLACK reaches the running sup.  Where a bound is
    not finite or the sup leaves PRUNE_RANGE, every entry is read, so a
    non-finite entry gives NaN as in the unpruned max.
    """
    if bounds is None:
        bounds = _frobenius(stack)
    if bounds.size == 0:
        return float(floor)
    top = np.argmax(bounds)  # the first NaN, if any
    if bounds.flat[top] <= PRUNE_RANGE:
        sup = _max(floor, float(norms(stack[np.unravel_index([top], bounds.shape)])[0]))
        if 1.0 / PRUNE_RANGE <= sup:
            reach = bounds * (1.0 + PRUNE_SLACK) >= sup
            reach.flat[top] = False
            if reach.any():
                sup = _max(sup, float(np.max(norms(stack[np.nonzero(reach)]))))
            return float(sup)
    return float(_max(floor, float(np.max(norms(stack)))))


def _axis_offsets(radii, scales):
    """Offsets radii[a] * s along each axis a, for each s in scales (axis-major)."""
    d = len(radii)
    offs = np.zeros((d, len(scales), d))
    offs[np.arange(d), :, np.arange(d)] = np.outer(radii, scales)
    return offs.reshape(-1, d)


def estimate_curvature_bounds(prob, rec, tube: TubeSpec):
    """Sample the tube and return the smoothness/curvature constants.

    Returns a partially filled :class:`ConstantsBundle` (sigma_min_Mh, c_Pi
    and the derived constants are added by :func:`estimate_all`).  Raises
    :class:`EvaluationDomainError` naming every sampled constant that is
    not finite, as where a model derivative in the tube holds a NaN.
    """
    n, m = prob.n, prob.m
    n_t = TIME_SAMPLES_PER_INTERVAL * rec.mesh.n_intervals
    ts = np.linspace(0.0, rec.T, n_t)
    Xc, Uc, Pc = rec.X.eval(ts), rec.U.eval(ts), rec.P.eval(ts)

    # The tube in blocks of n_t rows: the reconstruction itself (Xc + 0 would
    # lose the sign of a zero), its full-radius axis offsets, then its
    # half-radius ones, whose difference quotients against the centre give
    # the Lipschitz constants of second derivatives.  Each block carries its
    # offset, whether it is half-radius, and three flags from its axis's
    # masks: can it change Fu (G_f; only full-radius blocks are read for
    # H_up_inf), Hf (H_f) and Lh (H_L).  A block with no flag is dropped.
    (G_f, H_f), (_, H_L), curved = model.dependency_masks(prob, ts[0], Xc[0], Uc[0])
    xu_radii = np.concatenate([np.full(n, tube.dx), np.full(m, tube.du)])
    blocks = [(None, False, True, True, True)]
    for half, scales in ((False, (-1.0, 1.0)), (True, (0.5, -0.5))):
        pairs = _axis_offsets(xu_radii, scales).reshape(n + m, 2, n + m)
        for axis, pair in enumerate(pairs):
            flags = [bool(mask >> axis & 1) for mask in (0 if half else G_f, H_f, H_L)]
            blocks += [(offset, half, *flags) for offset in pair if any(flags)]
    M2f = sup_L = H_ux_inf = H_up_inf = L21_f = L21_L = 0.0
    rho = math.inf

    # A bound reads a block only where the flag of the array it reads is set;
    # a block's unflagged arrays are the centre's.  H(p) = Lh + sum_i p_i Hf_i
    # is affine in p, so Weyl's inequality bounds rho and ||H_ux|| over the
    # whole box |p_i - Pc_i| <= dp from the control rows of H at the centre
    # costate.
    def add_block(block, Fu, Hf, Lh):
        nonlocal M2f, sup_L, rho, H_ux_inf, H_up_inf, L21_f, L21_L
        offset, half, new_u, new_f, new_L = block
        if half:
            step = float(np.linalg.norm(offset))
            if new_f:
                L21_f = _max(L21_f, _sup(_sym_spectral_norms, Hf - centre[1], 0.0) / step)
            if new_L:
                L21_L = _max(L21_L, _sup(_sym_spectral_norms, Lh - centre[2], 0.0) / step)
            return
        # _sup and np.minimum keep a NaN, which the finiteness check below
        # rejects
        if new_u:
            # the same Gram, Fu^T Fu, as for the norms of Fu^T
            H_up_inf = _sup(_spectral_norms, Fu, H_up_inf)
        if new_L:
            sup_L = _sup(_sym_spectral_norms, Lh, sup_L)
        if not (new_f or new_L):
            return
        if new_f:
            M2f = _sup(_sym_spectral_norms, Hf, M2f)
        H_u = Lh[:, n:, :] + np.einsum("bi,bijk->bjk", Pc[:, curved], Hf[:, :, n:, :])
        spread_uu = tube.dp * np.sum(_sym_spectral_norms(Hf[:, :, n:, n:]), axis=1)
        rho = np.minimum(rho, np.min(_eigvalsh(H_u[:, :, n:])[:, 0] - spread_uu))
        # ||H_ux|| plus the Weyl spread of its costate terms, row by row
        H_ux, Hf_ux = H_u[:, :, :n], Hf[:, :, n:, :n]

        def H_ux_norms(rows):
            spread = tube.dp * np.sum(_spectral_norms(Hf_ux[rows]), axis=1)
            return _spectral_norms(H_ux[rows]) + spread

        bounds = _frobenius(H_ux) + tube.dp * np.sum(_frobenius(Hf_ux), axis=1)
        H_ux_inf = _sup(H_ux_norms, np.arange(len(H_ux)), H_ux_inf, bounds)

    def evaluate(batch, group):
        """The order-2 parts of ``batch`` on each block of ``group``, in order."""
        if not group:
            return []
        X = np.concatenate([Xc if off is None else Xc + off[:n] for off, *_ in group])
        U = np.concatenate([Uc if off is None else Uc + off[n:] for off, *_ in group])
        parts = batch(prob, np.tile(ts, len(group)), X, U, order=2)
        return [[p[j * n_t : (j + 1) * n_t] for p in parts] for j in range(len(group))]

    # Each model batch holds whole blocks and at most max(n_t,
    # TUBE_BATCH_ROWS) rows, which bounds the tube's peak memory as N grows;
    # its Hf stacks are cut to the curved outputs, as is every Hf below.
    per_batch = max(1, TUBE_BATCH_ROWS // n_t)
    for first in range(0, len(blocks), per_batch):
        group = blocks[first : first + per_batch]
        dyn = evaluate(model.dynamics_batch, [b for b in group if b[2] or b[3]])
        dyn = [(*parts, Hf[:, curved]) for *parts, Hf in dyn]
        cost = evaluate(model.running_cost_batch, [b for b in group if b[4]])
        if first == 0:
            # linearized dynamics along the reconstruction only
            A_inf, B_inf = (_sup(_spectral_norms, a, -math.inf) for a in dyn[0][1:3])
            centre = dyn[0][2].copy(), dyn[0][3].copy(), cost[0][2].copy()
        for block in group:
            Fu, Hf = dyn.pop(0)[2:] if block[2] or block[3] else centre[:2]
            add_block(block, Fu, Hf, cost.pop(0)[2] if block[4] else centre[2])
        del Fu, Hf  # freed first, so the peak holds one batch, not two
    rho = float(rho)

    # endpoint cost Hessian over the endpoint tube, in one batch: the center,
    # the full-radius axis offsets, then the half-radius ones for L21_K
    end_radii = np.full(2 * n, tube.dx)
    x0v, xTv = rec.X.eval(0.0), rec.X.eval(rec.T)
    end_full = _axis_offsets(end_radii, (1.0, -1.0))
    end_half = _axis_offsets(end_radii, (0.5, -0.5))
    end_offsets = np.vstack([np.zeros(2 * n), end_full, end_half])
    K_hess = model.endpoint_hessian_batch(prob, x0v + end_offsets[:, :n], xTv + end_offsets[:, n:])
    n_end = 1 + len(end_full)
    L2 = _sup(_sym_spectral_norms, K_hess[:n_end], _max(sup_L, M2f))
    # every half-radius endpoint offset has the same length
    step = float(np.linalg.norm(end_half, axis=1)[0])
    L21_K = _sup(_sym_spectral_norms, K_hess[n_end:] - K_hess[0], 0.0) / step
    L21_f, L21_L, L21_K = (SAFETY_FACTOR * q for q in (L21_f, L21_L, L21_K))
    sampled = dict(
        rho=rho, L2=L2, M2f=M2f, L21_f=L21_f, L21_L=L21_L, L21_K=L21_K,
        P_max=float(np.max(np.linalg.norm(Pc, axis=1))) + tube.dp,
        A_inf=A_inf, B_inf=B_inf, H_ux_inf=H_ux_inf, H_up_inf=H_up_inf,
    )
    bad = [f"{name} = {value}" for name, value in sampled.items() if not math.isfinite(value)]
    if bad:
        raise EvaluationDomainError(
            f"sampled constants not finite ({', '.join(bad)}); "
            "a model derivative over the tube holds a NaN or an inf"
        )
    if not rho > 0.0:
        raise LegendreViolationError(
            f"min eigenvalue of H_uu over the tube is {rho:.3e}; "
            "strengthened Legendre condition fails"
        )
    return ConstantsBundle(**sampled, tube=tube)


def estimate_C_geo(Mh) -> float:
    """sigma_min(M_h), whose inverse is C_geo.

    ``Mh`` is the Jacobian of the collocation equations at the discrete
    solution (compressed form for Hermite-Simpson), dense or sparse;
    sigma_min comes from :func:`numerics.sigma_min`, Lanczos on the
    banded LU of the saddle [[I, M_h^T], [M_h, 0]].
    """
    Mh = scipy.sparse.csr_matrix(Mh, dtype=float)
    smin = sigma_min(Mh)
    scale = float(abs(Mh).max())
    if smin <= 1e-12 * max(1.0, scale):
        raise StrongRegularityError(
            f"sigma_min of the discrete KKT Jacobian is {smin:.3e}; "
            "strong regularity is violated"
        )
    return smin


def inf_on_overflow(fn, *args):
    """fn(*args) for a float function such as math.exp or pow, or inf where
    its result overflows (Python raises OverflowError there)."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


# an inf stands for a finite bound past the float range, so 0 times it reads 0
_BINARY = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Div: operator.truediv, ast.Pow: math.pow,
    ast.Mult: lambda a, b: 0.0 if 0.0 in (a, b) and math.inf in (abs(a), abs(b)) else a * b,
}
_CALLS = {"exp": math.exp, "max": max}


def _evaluate(node, values):
    kind = type(node)
    if kind is ast.Name and node.id in values:
        return float(values[node.id])
    if kind is ast.Constant and is_number(node.value):
        return float(node.value)
    if kind is ast.BinOp and type(node.op) in _BINARY:
        fn, args = _BINARY[type(node.op)], (node.left, node.right)
    elif kind is ast.UnaryOp and type(node.op) is ast.USub:
        fn, args = operator.neg, (node.operand,)
    elif kind is ast.Call and getattr(node.func, "id", None) in _CALLS and not node.keywords:
        fn, args = _CALLS[node.func.id], node.args
    else:
        raise ContractError(f"formula term {ast.unparse(node)!r} is not allowed")
    return inf_on_overflow(fn, *(_evaluate(arg, values) for arg in args))


def evaluate(formula: str, values) -> float:
    """``formula`` over the name -> number mapping ``values``, without ``eval``.

    Allowed are numbers, names in ``values``, + - * / **, unary minus and
    calls to exp and max; any other term raises :class:`ContractError`.
    """
    return _evaluate(ast.parse(formula, mode="eval").body, values)


PAPER_CONSTANTS = {
    "C_geo": 53.39, "Gamma": 979.47, "Lambda": 1.09, "C_close_inf": 59.36, "C_T": 0.0
}


def derive(values, mesh, scheme, paper_constants: bool = False) -> dict:
    """Every ``FORMULAS`` entry, in order, over the sampled ``values`` on ``mesh``.

    With ``paper_constants`` the published values replace their entries
    before Gamma_tot, the last entry, sums them.
    """
    scheme = transcription.parse_scheme(scheme)
    values = dict(values, T=mesh.T, h_max=float(np.max(mesh.h)), p=scheme.degree)
    for name, formula in FORMULAS.items():
        if name == "Gamma_tot" and paper_constants:
            values.update(PAPER_CONSTANTS)
        values[name] = evaluate(formula, values)
    return {name: values[name] for name in FORMULAS}


def estimate_all(
    prob, rec, dkkt, tube: Optional[TubeSpec] = None, paper_constants: bool = False
) -> ConstantsBundle:
    """The complete bundle: the tube's constants, sigma_min(M_h), c_Pi and
    the derived constants.  ``paper_constants`` reproduces the published
    arithmetic chain (see :func:`derive`); all else is still estimated."""
    layout = dkkt.layout
    bundle = estimate_curvature_bounds(prob, rec, tube or TubeSpec())
    bundle.c_Pi = layout.scheme.lebesgue
    Mh = transcription.compress_collocation_jacobian(layout, dkkt.kkt_matrices(prob)[0])
    bundle.sigma_min_Mh = estimate_C_geo(Mh)
    bundle.paper_constants = paper_constants
    return replace(bundle, **derive(asdict(bundle), layout.mesh, layout.scheme, paper_constants))
