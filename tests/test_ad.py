import numpy as np
import pytest

from ssoc_certify import ad


def fd_gradient(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian(f, x, h=1e-3):
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            H[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h * h)
    return H


def scalar_fn(v):
    # mixed trig/exp expression with nontrivial curvature
    return np.sin(v[0]) * v[1] + np.exp(0.3 * v[2]) * v[0] - v[1] * v[2] ** 2 / (
        2.0 + np.cos(v[0])
    )


def scalar_fn_ad(xs):
    return ad.sin(xs[0]) * xs[1] + ad.exp(0.3 * xs[2]) * xs[0] - xs[1] * xs[2] ** 2 / (
        2.0 + ad.cos(xs[0])
    )


def test_zero_derivative_parts_match_plain_arithmetic_bitwise():
    a_val, b_val = 1.73, -0.4182
    a = ad.AdScalar2.constant(a_val, 3)
    b = ad.AdScalar2.constant(b_val, 3)
    assert (a + b).val[0] == a_val + b_val
    assert (a - b).val[0] == a_val - b_val
    assert (a * b).val[0] == a_val * b_val


def test_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.normal(size=3)
        xs = ad.seed_vector(x[None, :], 0, 3)
        out = scalar_fn_ad(xs)
        g_fd = fd_gradient(scalar_fn, x)
        H_fd = fd_hessian(scalar_fn, x)
        assert np.max(np.abs(out.grad[0] - g_fd)) <= 1e-6 * max(1.0, np.abs(g_fd).max())
        assert np.max(np.abs(out.hess[0] - H_fd)) <= 1e-4 * max(1.0, np.abs(H_fd).max())


def test_hessian_is_bitwise_symmetric():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 3))
    xs = ad.seed_vector(x, 0, 3)
    out = scalar_fn_ad(xs)
    assert np.array_equal(out.hess, np.swapaxes(out.hess, 1, 2))


def test_division_and_power_rules():
    x = ad.seed_vector(np.array([[2.0]]), 0, 1)[0]
    y = (x**3) / (1.0 + x)
    # value 8/3, derivative (3x^2 (1+x) - x^3) / (1+x)^2 = (12*3-8)/9
    assert y.val[0] == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert y.grad[0, 0] == pytest.approx(28.0 / 9.0, rel=1e-12)


def test_sqrt_log_chain():
    x = ad.seed_vector(np.array([[1.7]]), 0, 1)[0]
    y = ad.log(ad.sqrt(x))
    assert y.val[0] == pytest.approx(0.5 * np.log(1.7), rel=1e-14)
    assert y.grad[0, 0] == pytest.approx(0.5 / 1.7, rel=1e-12)
    assert y.hess[0, 0, 0] == pytest.approx(-0.5 / 1.7**2, rel=1e-12)


def test_batched_values_agree_with_scalar_loop():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    xs = ad.seed_vector(X, 0, 3)
    out = scalar_fn_ad(xs)
    for b in (0, 17, 39):
        xs1 = ad.seed_vector(X[b : b + 1], 0, 3)
        one = scalar_fn_ad(xs1)
        assert out.val[b] == one.val[0]
        assert np.array_equal(out.grad[b], one.grad[0])
        assert np.array_equal(out.hess[b], one.hess[0])


@pytest.mark.parametrize(
    "op",
    [lambda a, b: a + b, lambda a, b: b + a, lambda a, b: a - b, lambda a, b: b - a,
     lambda a, b: a * b, lambda a, b: b * a, lambda a, b: a / b, lambda a, b: b / a],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul", "div", "rdiv"],
)
def test_plain_operand_of_larger_batch_matches_lifted_constant(op):
    # a one-point AD value meets a (B,) array: the fast path spans the batch
    # like the AD-AD rule on the lifted constant
    x = ad.seed_vector(np.array([[0.7, -1.3]]), 0, 2)
    for a in (x[0], x[0] * ad.sin(x[1])):
        arr = np.array([1.5, -2.0, 0.25, 3.0])
        fast = op(a, arr)
        lifted = op(a, ad.AdScalar2.constant(arr, 2))
        assert fast.grad.shape == (4, 2) and fast.hess.shape == (4, 2, 2)
        assert np.array_equal(fast.val, lifted.val)
        assert np.array_equal(fast.grad, lifted.grad)
        assert np.array_equal(fast.hess, lifted.hess)
