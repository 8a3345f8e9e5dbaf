"""Property tests of the second-order AD over random expression trees.

A tree is nested tuples: leaves ``("var", i)``, ``("const", c)`` (a plain
float) and ``("array", k)`` (a plain (B,) array); inner nodes apply
``+ - * /``, ``**``, unary minus and ``sin/cos/exp/log/sqrt``. Plain
leaves land on either side of each operator. ``log``, ``sqrt``,
fractional powers and denominators act on ``0.5 + e * e`` so every tree is
smooth on all of R^d. The trees compared with the dense reference rules
also draw ``("var", D + i)`` leaves: variable ``i`` seeded at the first
point only, a single-row operand that broadcasts against the batch.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import dense_ad
from ssoc_certify import ad
from ssoc_certify.errors import ContractError

D = 3  # seed directions
B = 5  # batch size
N_ARRAYS = 2
H_FD = 1e-5

BINARY = ("add", "sub", "mul", "div")
UNARY = ("neg", "sin", "cos", "exp", "log", "sqrt", "square", "cube", "pow_half", "pow_neg")

var_leaf = st.integers(0, D - 1).map(lambda i: ("var", i))
row_leaf = st.integers(D, 2 * D - 1).map(lambda i: ("var", i))
plain_leaf = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False).map(lambda c: ("const", c)),
    st.integers(0, N_ARRAYS - 1).map(lambda k: ("array", k)),
)


def _general(children):
    return st.one_of(
        st.tuples(st.sampled_from(BINARY), children, children),
        st.tuples(st.sampled_from(UNARY), children),
    )


def _affine(children):
    # a product or quotient has a plain factor, so the tree stays affine
    return st.one_of(
        st.tuples(st.sampled_from(("add", "sub")), children, children),
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("mul"), children, plain_leaf),
        st.tuples(st.just("mul"), plain_leaf, children),
        st.tuples(st.just("div"), children, plain_leaf),
    )


trees = st.recursive(st.one_of(var_leaf, var_leaf, plain_leaf), _general, max_leaves=8)
affine_trees = st.recursive(st.one_of(var_leaf, plain_leaf), _affine, max_leaves=8)
oracle_trees = st.recursive(st.one_of(var_leaf, row_leaf, plain_leaf), _general, max_leaves=8)
seeds = st.integers(0, 2**32 - 1)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _arrays_of(x):
    """Every array of an operand: the stored parts of an AD scalar, or the array itself."""
    if isinstance(x, ad.AdScalar2):
        return [x.val, x._grad] + ([] if x._hess is None else [x._hess])
    if isinstance(x, np.ndarray):
        return [x]
    return []


class Evaluator:
    """Evaluates a tree; snapshots every operand so later writes show."""

    def __init__(self, variables, arrays, fns=ad):
        self.variables = variables
        self.arrays = arrays
        self.fns = fns
        self.snapshots = []

    def apply(self, fn, *operands):
        for x in operands:
            self.snapshots.extend((a, a.copy()) for a in _arrays_of(x))
        return fn(*operands)

    def guard(self, e):
        return self.apply(lambda a: 0.5 + a, self.apply(lambda a: a * a, e))

    def __call__(self, tree):
        kind = tree[0]
        if kind == "var":
            return self.variables[tree[1]]
        if kind == "const":
            return tree[1]
        if kind == "array":
            return self.arrays[tree[1]]
        args = [self(t) for t in tree[1:]]
        if kind == "add":
            return self.apply(lambda a, b: a + b, *args)
        if kind == "sub":
            return self.apply(lambda a, b: a - b, *args)
        if kind == "mul":
            return self.apply(lambda a, b: a * b, *args)
        if kind == "div":
            return self.apply(lambda a, b: a / b, args[0], self.guard(args[1]))
        (e,) = args
        if kind == "neg":
            return self.apply(lambda a: -a, e)
        if kind == "sin":
            return self.apply(self.fns.sin, e)
        if kind == "cos":
            return self.apply(self.fns.cos, e)
        if kind == "exp":
            return self.apply(self.fns.exp, e)
        if kind == "square":
            return self.apply(lambda a: a**2, e)
        if kind == "cube":
            return self.apply(lambda a: a**3, e)
        g = self.guard(e)
        if kind == "log":
            return self.apply(self.fns.log, g)
        if kind == "sqrt":
            return self.apply(self.fns.sqrt, g)
        if kind == "pow_half":
            return self.apply(lambda a: a**1.5, g)
        return self.apply(lambda a: a**-0.5, g)

    def unchanged(self):
        return all(np.array_equal(a, snap) for a, snap in self.snapshots)


def _inputs(seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.5, 1.5, size=(B, D)), rng.uniform(-2.0, 2.0, size=(N_ARRAYS, B))


def _ad_eval(tree, X, arrays, fns=ad, **seed_options):
    """Evaluate on AD seeds: D batch variables, then D single-row ones."""
    seeds = fns.seed_vector(X, 0, D, **seed_options) + fns.seed_vector(X[:1], 0, D, **seed_options)
    ev = Evaluator(seeds, list(arrays), fns)
    return ev(tree), ev


def _plain_eval(tree, X, arrays):
    out = Evaluator([X[:, i] for i in range(D)], list(arrays))(tree)
    return np.broadcast_to(np.asarray(out, dtype=float), (X.shape[0],))


@SETTINGS
@given(tree=trees, seed=seeds)
def test_random_trees_match_finite_differences(tree, seed):
    X, arrays = _inputs(seed)
    out, ev = _ad_eval(tree, X, arrays)
    assume(isinstance(out, ad.AdScalar2))
    assume(np.all(np.isfinite(out.hess)) and np.max(np.abs(out.hess)) < 1e6)
    assert ev.unchanged()
    assert out.grad.shape == (B, D) and out.hess.shape == (B, D, D)
    assert np.array_equal(out.hess, np.swapaxes(out.hess, 1, 2))
    scale = 1.0 + np.max(np.abs(out.val)) + np.max(np.abs(out.grad)) + np.max(np.abs(out.hess))
    assert np.max(np.abs(out.val - _plain_eval(tree, X, arrays))) <= 1e-13 * scale
    for i in range(D):
        step = np.zeros(D)
        step[i] = H_FD
        g_fd = (_plain_eval(tree, X + step, arrays) - _plain_eval(tree, X - step, arrays)) / (
            2 * H_FD
        )
        assert np.max(np.abs(out.grad[:, i] - g_fd)) <= 1e-5 * scale
        up, _ = _ad_eval(tree, X + step, arrays)
        down, _ = _ad_eval(tree, X - step, arrays)
        h_fd = (up.grad - down.grad) / (2 * H_FD)
        assert np.max(np.abs(out.hess[:, :, i] - h_fd)) <= 1e-5 * scale


@SETTINGS
@given(tree=trees, seed=seeds)
def test_batched_trees_equal_one_point_trees_bitwise(tree, seed):
    X, arrays = _inputs(seed)
    out, _ = _ad_eval(tree, X, arrays)
    assume(isinstance(out, ad.AdScalar2))
    for b in range(B):
        one, _ = _ad_eval(tree, X[b : b + 1], arrays[:, b : b + 1])
        assert np.array_equal(out.val[b], one.val[0], equal_nan=True)
        assert np.array_equal(out.grad[b], one.grad[0], equal_nan=True)
        assert np.array_equal(out.hess[b], one.hess[0], equal_nan=True)


@SETTINGS
@given(tree=affine_trees, seed=seeds)
def test_affine_trees_report_zero_hessian(tree, seed):
    X, arrays = _inputs(seed)
    out, ev = _ad_eval(tree, X, arrays)
    assume(isinstance(out, ad.AdScalar2))
    assert ev.unchanged()
    assert out.is_affine
    assert out.hess.shape == (B, D, D)
    assert not np.any(out.hess)


@SETTINGS
@pytest.mark.parametrize("first_order", [False, True], ids=["order2", "order1"])
@given(tree=oracle_trees, seed=seeds)
def test_direction_blocks_equal_dense_rules_bitwise(first_order, tree, seed):
    X, arrays = _inputs(seed)
    out, ev = _ad_eval(tree, X, arrays, first_order=first_order)
    assume(isinstance(out, ad.AdScalar2))
    ref, _ = _ad_eval(tree, X, arrays, fns=dense_ad)
    pairs = [(out.val, ref.val), (out.grad, ref.grad)]
    if first_order:
        with pytest.raises(ContractError):
            out.hess
    else:
        assert out.is_affine == (ref._hess is None)
        pairs.append((out.hess, ref.hess))
    # outside its active directions the dense rules multiply zeros by the
    # values, which a non-finite value turns into NaN
    assume(all(np.all(np.isfinite(r)) for _, r in pairs))
    assert ev.unchanged()
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@SETTINGS
@pytest.mark.parametrize("first_order", [False, True], ids=["order2", "order1"])
@given(tree=trees, seed=seeds)
def test_values_equal_plain_evaluation_bitwise(first_order, tree, seed):
    """AD values, quotients included, round exactly as plain numpy does."""
    X, arrays = _inputs(seed)
    out, _ = _ad_eval(tree, X, arrays, first_order=first_order)
    assume(isinstance(out, ad.AdScalar2))
    assert np.array_equal(out.val, _plain_eval(tree, X, arrays), equal_nan=True)


# A straight-line program: each instruction applies an operation to two
# registers (a unary one reads the first) and appends its result.  The
# registers start as the D variables and two plain constants; an operand is
# one of these or, counted from the end, one of the last three results.
operands = st.one_of(st.integers(0, D + 1), st.integers(-3, -1))
programs = st.lists(
    st.tuples(st.sampled_from(BINARY + UNARY), operands, operands), min_size=2, max_size=10
)


def _run_program(program, variables, constants):
    """Every register of ``program`` run on ``variables``."""
    regs = list(variables) + list(constants)
    ev = Evaluator(regs, [])  # a register reads as variable k
    for op, i, j in program:
        a, b = ("var", i % len(regs)), ("var", j % len(regs))  # -1 is the last result
        regs.append(ev((op, a, b) if op in BINARY else (op, a)))
    return regs


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    program=programs,
    seed=seeds,
    constants=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=2, max_size=2),
    offset=st.floats(0.25, 1.0),
)
def test_masks_name_every_input_a_derivative_reads(program, seed, constants, offset):
    # offsetting an input outside a value's gradient mask G (Hessian mask
    # H) leaves its gradient (Hessian) bitwise unchanged
    X, _ = _inputs(seed)
    base = _run_program(program, ad.seed_vector(X, 0, D), constants)
    for axis in range(D):
        step = np.zeros(D)
        step[axis] = offset
        moved = _run_program(program, ad.seed_vector(X + step, 0, D), constants)
        for b, m in zip(base, moved):
            if not isinstance(b, ad.AdScalar2):
                continue
            if not b.gmask >> axis & 1:
                assert np.array_equal(b.grad, m.grad, equal_nan=True), (axis, bin(b.gmask))
            if not b.hmask >> axis & 1:
                assert np.array_equal(b.hess, m.hess, equal_nan=True), (axis, bin(b.hmask))
