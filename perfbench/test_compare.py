"""Self-check of the benchmark's output comparator.

Run with: python3 -m pytest perfbench -q
"""

import copy
import json

import bootstrap
import compare
import tracer
import workloads

REFERENCE = compare.load_reference()
LARGE = REFERENCE["quadrotor/hermite-simpson/140"]
REFINE = REFERENCE["refine/quadrotor/hermite-simpson/10"]


def test_reference_covers_every_operation():
    keys = {op.key for w in workloads.WORKLOADS.values() for op in w.ops}
    assert keys == set(REFERENCE)


def test_identical_outputs_pass():
    assert compare.check(LARGE, dict(LARGE)).ok
    assert compare.check(REFINE, copy.deepcopy(REFINE)).ok


def test_alpha_hat_within_tolerance_passes():
    got = dict(LARGE, alpha_hat=LARGE["alpha_hat"] * (1 + 0.1 * compare.REL_TOL))
    assert compare.check(LARGE, got).ok


def test_alpha_hat_past_tolerance_fails():
    got = dict(LARGE, alpha_hat=LARGE["alpha_hat"] * (1 + 10 * compare.REL_TOL))
    result = compare.check(LARGE, got)
    assert not result.ok
    assert "alpha_hat" in result.problems[0]


def test_nan_fails():
    got = dict(LARGE, sigma_min_Mh=float("nan"))
    assert not compare.check(LARGE, got).ok


def test_changed_refine_mesh_fails():
    got = copy.deepcopy(REFINE)
    nodes = got["meshes"][3]
    nodes[1] += 1e-3 * (nodes[2] - nodes[1])
    result = compare.check(REFINE, got)
    assert not result.ok
    assert "mesh sequence" in result.problems[0]


def test_missing_refine_round_fails():
    got = copy.deepcopy(REFINE)
    del got["meshes"][-1]
    del got["rounds"][-1]
    assert not compare.check(REFINE, got).ok


def test_perturbed_refine_round_fails():
    got = copy.deepcopy(REFINE)
    got["rounds"][5]["sigma_min_Mh"] *= 1 + 10 * compare.REL_TOL
    assert not compare.check(REFINE, got).ok


def test_verdict_flip_is_counted_not_failed():
    got = dict(LARGE, accepted=not LARGE["accepted"], ct_e=0.9)
    result = compare.check(LARGE, got)
    assert result.ok
    assert result.verdict_flips == 1


def test_operation_that_raises_fails(monkeypatch):
    sc = bootstrap.import_package(bootstrap.checkout_root())
    from ssoc_certify import certify

    def boom(*args, **kwargs):
        raise FloatingPointError("injected")

    runner = workloads.Runner(sc)
    monkeypatch.setattr(certify, "run_certification", boom)
    (result,) = runner.run_pass([workloads.WORKLOADS["certify-large"].ops[0]])
    check = compare.check(LARGE, result.outcome)
    assert not check.ok
    assert "FloatingPointError" in check.problems[0]


def test_trace_reports_every_listed_per_layer_metric():
    listed = json.loads((bootstrap.checkout_root() / "BENCHMARK.json").read_text())["per_layer"]
    reported = set(tracer.Trace().layer_metrics(1)) | {"certify.verdict_flips", "trace.overhead_frac"}
    assert {m["name"] for m in listed} == reported
