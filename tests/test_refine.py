import numpy as np
import pytest

import ssoc_certify as sc
from ssoc_certify.errors import SettingsError


@pytest.fixture(scope="module")
def stiff_problem():
    # fast linear decay: the coarse start mesh badly under-resolves the
    # initial boundary layer
    return sc.OcpProblem(
        name="stiff", n=1, m=1, T=1.0,
        dynamics=lambda t, x, u: [-50.0 * x[0] + u[0]],
        running_cost=lambda t, x, u: 0.5 * (x[0] * x[0] + u[0] * u[0]),
        endpoint_cost=lambda x0, xT: 0.5 * xT[0] * xT[0],
        x0=np.array([1.0]), x_target=np.zeros(1), u_guess=np.zeros(1),
    )


def test_policy_validation():
    with pytest.raises(ValueError):
        sc.RefinePolicy(fraction=0.0)
    with pytest.raises(ValueError):
        sc.RefinePolicy(max_total_intervals=0)
    # a non-integer bound would reach range() inside certify_loop
    for kwargs in (
        {"max_rounds": 2.5},
        {"max_rounds": -1},
        {"max_rounds": "3"},
        {"max_rounds": None},
        {"max_total_intervals": 40.0},
        {"max_total_intervals": 0},
    ):
        with pytest.raises(SettingsError):
            sc.RefinePolicy(**kwargs)
    assert sc.RefinePolicy(max_rounds=0, max_total_intervals=1).max_rounds == 0


@pytest.mark.parametrize(
    "kwargs",
    [{"fraction": "0.3"}, {"fraction": True}, {"max_rounds": True}, {"max_total_intervals": True}],
    ids=["fraction-str", "fraction-bool", "max_rounds-bool", "max_total_intervals-bool"],
)
def test_policy_rejects_strings_and_bools(kwargs):
    with pytest.raises(SettingsError):
        sc.RefinePolicy(**kwargs)


def test_already_certified_returns_in_one_round(lq_problem):
    res = sc.certify_loop(lq_problem, sc.Mesh.uniform(1.0, 10), "hermite-simpson")
    assert res.termination == "accepted"
    assert len(res.history) == 1
    assert res.history[0].accepted


def test_quadrotor_accepted_from_coarse_mesh(quad_problem):
    res = sc.certify_loop(quad_problem, sc.Mesh.uniform(2.0, 10), "hermite-simpson")
    assert res.termination == "accepted"
    assert len(res.history) == 1


def test_max_rounds_zero_returns_round_zero_verdict(stiff_problem):
    policy = sc.RefinePolicy(max_rounds=0)
    res = sc.certify_loop(stiff_problem, sc.Mesh.uniform(1.0, 4), "hermite-simpson", policy=policy)
    assert len(res.history) == 1
    assert res.history[0].round == 0


def test_stiff_problem_refines_where_needed(stiff_problem):
    policy = sc.RefinePolicy(max_rounds=4)
    res = sc.certify_loop(
        stiff_problem, sc.Mesh.uniform(1.0, 4), "hermite-simpson", policy=policy
    )
    assert len(res.history) >= 2
    # mesh nesting: every round's node set contains the previous one
    for a, b in zip(res.meshes, res.meshes[1:]):
        assert set(np.round(a.nodes, 12)).issubset(set(np.round(b.nodes, 12)))
    # dense residual history decreases (10 percent slack)
    dense = [s.e_n2_dense for s in res.history]
    for a, b in zip(dense, dense[1:]):
        assert b <= 1.1 * a
    # refinement must have targeted the under-resolved initial transient
    assert res.meshes[-1].nodes[1] < res.meshes[0].nodes[1]


def test_refine_is_deterministic(stiff_problem):
    policy = sc.RefinePolicy(max_rounds=2)
    r1 = sc.certify_loop(stiff_problem, sc.Mesh.uniform(1.0, 4), "hermite-simpson", policy=policy)
    r2 = sc.certify_loop(stiff_problem, sc.Mesh.uniform(1.0, 4), "hermite-simpson", policy=policy)
    assert [s.to_dict() for s in r1.history] == [s.to_dict() for s in r2.history]


def test_interval_cap_stops_refinement(stiff_problem):
    policy = sc.RefinePolicy(max_rounds=8, max_total_intervals=6)
    res = sc.certify_loop(stiff_problem, sc.Mesh.uniform(1.0, 4), "hermite-simpson", policy=policy)
    assert res.termination in ("max-intervals", "accepted")
    assert all(s.n_intervals <= 6 for s in res.history)
