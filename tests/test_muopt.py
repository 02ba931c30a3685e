"""Optimization and verification-sweep tests, kept at small budgets; the
acceptance suite runs the full-scale configurations."""

import json
import math

import numpy as np
import pytest

from fneighbors import geometry, muopt, neighbors
from fneighbors.domains import cube_boundary_cover, sample_sphere
from fneighbors.geometry import separation_bound
from fneighbors.maps import (
    MapSpec,
    discretization_allowance,
    evaluate,
    identity_fourier_params,
    map_to_json,
)
from fneighbors.neighbors import compute_df, neighbor_graph
from fneighbors.muopt import (
    BoundViolationError,
    DeltaHistogram,
    OptimizerConfig,
    delta_sweep,
    df_objective,
    estimate_mu,
    verify_borsuk_ulam,
    verify_sphere_bound,
)

TINY = OptimizerConfig(n_restarts=2, budget=60, n_probes=8, seed=0)


def test_objective_identity_embedding_df_two():
    domain = sample_sphere(1, 256, seed=0, scheme="quasi_uniform")
    obj = df_objective(domain, "circle_fourier", 2)
    df = obj(np.array(identity_fourier_params()))
    assert df == pytest.approx(2.0, abs=1e-12)
    assert df - separation_bound(1) > 0.2  # comfortable positive margin


def test_estimate_mu_constant_family_yields_diameter():
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    est = estimate_mu(domain, "constant", 2, TINY)
    assert est.best_df == pytest.approx(2.0, abs=1e-12)
    assert est.lower_bound == pytest.approx(math.sqrt(3.0))
    assert est.best_map.family == "constant"


def test_estimate_mu_deterministic_and_trace_monotone():
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    a = estimate_mu(domain, "circle_fourier", 2, TINY)
    b = estimate_mu(domain, "circle_fourier", 2, TINY)
    assert a.best_df == b.best_df
    assert a.best_map.params == b.best_map.params
    assert a.trace == b.trace
    vals = [v for _, v in a.trace]
    assert vals == sorted(vals, reverse=True)
    assert len(vals) >= 1
    evals = [i for i, _ in a.trace]
    assert evals == sorted(evals)


def test_verify_sphere_bound_small_run():
    report = verify_sphere_bound(1, 2, trials=5, n_samples=512, seed=0)
    assert report["all_ok"]
    assert report["bound"] == pytest.approx(math.sqrt(3.0))
    assert report["min_margin"] >= -0.05
    assert len(report["trials"]) == 5
    for row in report["trials"]:
        assert row["df"] >= report["bound"] - row["allowance"]
        assert row["extremal_pair"] is not None


def test_verify_sphere_bound_rejects_borsuk_ulam_regime():
    with pytest.raises(ValueError):
        verify_sphere_bound(2, 2, trials=1, n_samples=64)


def test_verify_borsuk_ulam_coincidences():
    report = verify_borsuk_ulam(trials=10, n_samples=1024, seed=0)
    assert report["all_ok"]
    for row in report["trials"]:
        assert row["rho"] == pytest.approx(2.0, abs=1e-12)
        assert row["image_gap"] <= row["allowance"]


def test_delta_sweep_identity_fills_range():
    domain = sample_sphere(1, 256, seed=0, scheme="quasi_uniform")
    spec = MapSpec(family="circle_fourier", m_out=2,
                   params=identity_fourier_params())
    hist = delta_sweep(domain, spec, bins=10)
    assert isinstance(hist, DeltaHistogram)
    assert hist.n_pairs == 256 * 255 // 2
    assert hist.d_max == pytest.approx(2.0, abs=1e-12)
    assert hist.d_min == pytest.approx(2.0 * math.sin(math.pi / 256), rel=1e-9)
    # every bin from the first occupied one onward sees some chord
    counts = np.asarray(hist.counts)
    first = np.flatnonzero(counts)[0]
    assert np.all(counts[first:] > 0)


def test_delta_sweep_constant_map():
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    spec = MapSpec(family="constant", m_out=2, params=(1.0, -2.0))
    hist = delta_sweep(domain, spec, bins=8)
    assert hist.n_pairs == 128 * 127 // 2
    assert hist.d_max == pytest.approx(2.0, abs=1e-12)


def test_delta_sweep_counts_distances_above_two():
    # the 5-cube boundary has diameter sqrt(5); every pair of the constant
    # map's one coincidence tuple lands in a bin
    domain, _ = cube_boundary_cover(5, 512, seed=0)
    spec = MapSpec(family="constant", m_out=2, params=(0.0, 0.0))
    hist = delta_sweep(domain, spec, bins=40)
    assert hist.n_pairs == 512 * 511 // 2
    assert hist.d_max > 2.0
    assert sum(hist.counts) == hist.n_pairs
    assert hist.bin_edges[-1] == hist.d_max


def test_bound_violation_carries_reproducer():
    err = BoundViolationError("boom", reproducer={"df": 1.0, "bound": 1.7})
    assert err.reproducer["bound"] == 1.7
    assert "boom" in str(err)


# --- the one lower-bound check, forced to fail by a bound above every D_f ---

SEARCH_KEYS = {"map", "df", "bound", "allowance", "kind", "dim", "n_samples",
               "domain_seed", "scheme"}


def test_estimate_mu_raises_on_its_first_probe(monkeypatch):
    evals = []
    span = muopt.neighbor_span
    monkeypatch.setattr(muopt, "neighbor_span",
                        lambda *a, **k: evals.append(1) or span(*a, **k))
    monkeypatch.setattr(muopt, "separation_bound", lambda n: 3.0)
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    with pytest.raises(BoundViolationError) as info:
        estimate_mu(domain, "circle_fourier", 2, TINY)
    assert len(evals) == 1
    assert str(info.value).startswith("certified D_f=")
    rep = info.value.reproducer
    assert set(rep) == SEARCH_KEYS
    assert rep["bound"] == 3.0 and rep["n_samples"] == 128
    assert rep["df"] < rep["bound"] - rep["allowance"]


def test_estimate_mu_checks_its_dense_result(monkeypatch):
    # the bound rises only once the search is over, when estimate_mu
    # samples the dense domain: the re-certified best_df must be checked
    sample = muopt.sample_sphere

    def dense_then_raise_bound(*args, **kwargs):
        monkeypatch.setattr(muopt, "separation_bound", lambda n: 3.0)
        return sample(*args, **kwargs)

    monkeypatch.setattr(muopt, "sample_sphere", dense_then_raise_bound)
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    with pytest.raises(BoundViolationError) as info:
        estimate_mu(domain, "circle_fourier", 2, TINY)
    rep = info.value.reproducer
    assert set(rep) == SEARCH_KEYS
    assert rep["n_samples"] == 256 and rep["domain_seed"] == 0
    dense = sample_sphere(1, 256, seed=0, scheme="quasi_uniform")
    with pytest.raises(BoundViolationError):
        df_objective(dense, "circle_fourier", 2)(
            np.array(json.loads(rep["map"])["params"]))


def test_verify_sphere_bound_violation_reproducer(monkeypatch):
    monkeypatch.setattr(muopt, "separation_bound", lambda n: 3.0)
    with pytest.raises(BoundViolationError) as info:
        verify_sphere_bound(1, 2, trials=2, n_samples=256, seed=4)
    assert str(info.value).startswith("trial 0: D_f=")
    rep = info.value.reproducer
    assert set(rep) == {"trial", "map", "df", "bound", "allowance", "n",
                        "m_out", "n_samples", "seed", "scheme"}
    assert (rep["trial"], rep["n"], rep["m_out"], rep["seed"]) == (0, 1, 2, 4)
    assert rep["bound"] == 3.0


def test_estimate_mu_rejects_zero_probes():
    domain = sample_sphere(1, 64, seed=0, scheme="quasi_uniform")
    with pytest.raises(ValueError, match="probe"):
        estimate_mu(domain, "circle_fourier", 2,
                    OptimizerConfig(n_restarts=1, budget=5, n_probes=0))


# --- the path of one mu evaluation ---

def _spy(monkeypatch, module, name, calls):
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **k: calls.append(name) or real(*a, **k))


def test_mu_evaluation_path(monkeypatch):
    # mu-circle settings (512 samples, degree-3 circle maps into R^2):
    # one Qhull call per evaluation, the dense re-certification included,
    # no full graph, and no least-squares solve for the cosphere test
    calls, evals = [], []
    for name in ("Delaunay", "_full_graph"):
        _spy(monkeypatch, neighbors, name, calls)
    _spy(monkeypatch, geometry, "fit_sphere", calls)
    _spy(monkeypatch, muopt, "neighbor_span", evals)
    _spy(monkeypatch, muopt, "discretization_allowance", calls)
    domain = sample_sphere(1, 512, seed=1, scheme="quasi_uniform")
    est = estimate_mu(domain, "circle_fourier", 2,
                      OptimizerConfig(n_restarts=2, budget=12, n_probes=4,
                                      seed=1))
    assert len(evals) == est.settings["evals"] + 1 == 29
    assert calls == ["Delaunay"] * len(evals)
    # the identity circle is cospherical: the closed-form sphere of
    # _clusters accepts it, the full graph is its one all-sample tuple,
    # and neither Qhull nor the allowance runs at D_f = 2, above sqrt(3)
    calls.clear()
    df = df_objective(domain, "circle_fourier", 2)(
        np.array(identity_fourier_params(2, 3)))
    assert df == pytest.approx(2.0, abs=1e-12)
    assert calls == ["_full_graph"]


def test_forced_violation_reproducer_is_the_maps(monkeypatch):
    monkeypatch.setattr(muopt, "separation_bound", lambda n: 3.0)
    domain = sample_sphere(1, 512, seed=1, scheme="quasi_uniform")
    with pytest.raises(BoundViolationError) as info:
        estimate_mu(domain, "circle_fourier", 2,
                    OptimizerConfig(n_restarts=1, budget=5, n_probes=4,
                                    seed=1))
    params = np.random.default_rng([1, 0]).uniform(-1.0, 1.0, size=(4, 14))[0]
    spec = MapSpec("circle_fourier", 2, tuple(params.tolist()))
    images = evaluate(spec, domain)
    df = compute_df(neighbor_graph(images, domain), domain)
    allowance = discretization_allowance(images, domain)
    assert info.value.reproducer == {
        "kind": "sphere", "dim": 1, "n_samples": 512, "domain_seed": 1,
        "scheme": "quasi_uniform", "map": map_to_json(spec), "df": df,
        "bound": 3.0, "allowance": allowance}
    assert str(info.value) == (f"certified D_f={df:.6f} below 3.000000 - "
                               f"{allowance:.6f}")


def _logged_steps(monkeypatch):
    """Patch muopt._nelder_mead to log (kind, point) for each point that
    minimize evaluates, and return the log."""
    log, search = [], muopt._nelder_mead

    def logged(x0):
        steps, vals = search(x0), None
        try:
            while True:
                kind, points = steps.send(vals)
                vals = yield kind, points
                log.extend((kind, np.copy(x)) for x in points[:len(vals)])
        except StopIteration as done:
            return done.value

    monkeypatch.setattr(muopt, "_nelder_mead", logged)
    return log


def test_violation_inside_a_shrink_raises_at_its_point(monkeypatch):
    # the K-th evaluation is the third point of the first shrink: a
    # violation there surfaces at once, with that point's map
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    cfg = OptimizerConfig(n_restarts=1, budget=40, n_probes=4, seed=0)
    log = _logged_steps(monkeypatch)
    estimate_mu(domain, "circle_fourier", 2, cfg)
    kinds = [kind for kind, _ in log]
    first = kinds.index("shrink")
    assert kinds[first:first + 3] == ["shrink"] * 3
    k = cfg.n_probes + first + 3
    evals = []
    span = muopt.neighbor_span
    monkeypatch.setattr(muopt, "neighbor_span", lambda *a, **kw: (
        evals.append(1) or (0.0 if len(evals) == k else span(*a, **kw))))
    with pytest.raises(BoundViolationError) as info:
        estimate_mu(domain, "circle_fourier", 2, cfg)
    assert len(evals) == k
    rep = info.value.reproducer
    assert rep["df"] == 0.0 and rep["bound"] == separation_bound(1)
    assert json.loads(rep["map"])["params"] == log[first + 2][1].tolist()


# --- muopt.minimize against scipy's Nelder-Mead, the oracle it replaces ---

def _circle_objective():
    domain = sample_sphere(1, 128, seed=0, scheme="quasi_uniform")
    x0 = np.random.default_rng(5).uniform(-1.0, 1.0, size=14)
    x0[[0, 3]] = 0.0
    return df_objective(domain, "circle_fourier", 2), x0


def _quadratic():
    # stops on xatol and fatol long before 400 evaluations, steep enough
    # that the simplex meets xatol before fatol
    return (lambda x: float(1e6 * ((x - [0.3, -0.2, 0.1]) ** 2).sum()),
            np.array([0.5, 0.0, -0.4]))


def _steps():
    # piecewise constant: expansions and contractions tie with reflections
    return (lambda x: float(np.floor(4.0 * np.abs(x - [0.3, 0.1, 0.0, 0.2])
                                     .sum())),
            np.array([3.3, 5.0, 0.0, -1.0]))


def _rosenbrock():
    def rosen(x):
        return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2
                      + (1.0 - x[:-1]) ** 2).sum())
    return rosen, np.array([-1.2, 1.0, 0.0, 0.5, 0.8])


def _points(minimizer, fun, x0):
    """The points minimizer evaluates, each scribbled over once read: only
    a copy of the point keeps the simplex intact."""
    seen = []

    def scribbling(x):
        seen.append(x.copy())
        value = fun(x)
        x[:] = np.nan
        return value

    minimizer(scribbling, x0)
    return seen


@pytest.mark.parametrize("budget", [0, 5, 15, 16, 53, 400])
@pytest.mark.parametrize("problem", [_circle_objective, _quadratic, _steps,
                                     _rosenbrock])
def test_minimize_evaluates_the_points_scipy_does(problem, budget):
    from scipy.optimize import minimize as scipy_minimize

    fun, x0 = problem()
    ours = _points(lambda f, x: muopt.minimize(f, x, budget), fun, x0)
    theirs = _points(lambda f, x: scipy_minimize(
        f, x, method="Nelder-Mead",
        options={"maxfev": budget, "xatol": muopt.XATOL,
                 "fatol": muopt.FATOL, "adaptive": False}), fun, x0)
    assert len(ours) == len(theirs) <= budget
    assert [p.tobytes() for p in ours] == [p.tobytes() for p in theirs]
    if problem is _quadratic and budget == 400:
        assert len(ours) < budget  # stopped by the tolerances


@pytest.mark.parametrize("problem, budget, last, cut", [
    (_steps, 3, "initial", "initial"),
    (_steps, 14, "inside_contraction", "shrink"),
    (_steps, 17, "shrink", "shrink"),
    (_steps, 35, "outside_contraction", "reflection"),
    (_circle_objective, 7, "initial", "initial"),
    (_circle_objective, 17, "inside_contraction", "shrink"),
    (_circle_objective, 20, "shrink", "shrink"),
])
def test_cut_budgets_return_what_scipy_returns(monkeypatch, problem, budget,
                                               last, cut):
    # budget ends after a point of kind last and before one of kind cut:
    # the points, the vertex and the value are still scipy's
    from scipy.optimize import minimize as scipy_minimize

    fun, x0 = problem()
    log = _logged_steps(monkeypatch)
    muopt.minimize(fun, x0, budget + 1)
    assert [kind for kind, _ in log[budget - 1:]] == [last, cut]
    monkeypatch.undo()
    ours, theirs = [], []
    x, value = muopt.minimize(lambda p: ours.append(p.copy()) or fun(p),
                              x0, budget)
    res = scipy_minimize(lambda p: theirs.append(p.copy()) or fun(p), x0,
                         method="Nelder-Mead",
                         options={"maxfev": budget, "xatol": muopt.XATOL,
                                  "fatol": muopt.FATOL, "adaptive": False})
    assert len(ours) == len(theirs) == budget
    assert [p.tobytes() for p in ours] == [p.tobytes() for p in theirs]
    assert x.tobytes() == res.x.tobytes() and value == res.fun
