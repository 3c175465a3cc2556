from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg.lapack import dtrtrs

from afsched import gp
from afsched.gp import (
    GpFitError,
    KernelParams,
    build_model,
    fit,
    log_marginal_likelihood,
    predict_batch,
)


def kernel_matern52(a: np.ndarray, b: np.ndarray, params: KernelParams) -> float:
    """Oracle: Matern 5/2 covariance between two points, one pair at a time.

    k(a, b) = sv * (1 + sqrt(5) r + 5 r^2 / 3) * exp(-sqrt(5) r) with r the
    lengthscale-weighted Euclidean distance.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != params.dim or b.size != params.dim:
        raise ValueError(f"points of dim {a.size}/{b.size} do not match {params.dim} lengthscales")
    scaled = (a - b) / params.lengthscales
    sq = float(scaled @ scaled)
    r = math.sqrt(sq)
    return params.signal_variance * (1.0 + math.sqrt(5.0) * r + (5.0 / 3.0) * sq) * math.exp(-math.sqrt(5.0) * r)


def _cross_kernel(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Oracle: the Matern 5/2 kernel matrix between row sets a (m, d) and b (n, d).

    The code predict_batch ran before GpModel carried the scaled training
    rows: both row sets are scaled and normed on every call.
    """
    ls = params.lengthscales
    asq = a / ls
    bsq = b / ls
    sq = np.sum(asq * asq, axis=1)[:, None] + np.sum(bsq * bsq, axis=1)[None, :] - 2.0 * asq @ bsq.T
    np.maximum(sq, 0.0, out=sq)
    r = np.sqrt(sq)
    return params.signal_variance * (1.0 + math.sqrt(5.0) * r + (5.0 / 3.0) * sq) * np.exp(-math.sqrt(5.0) * r)


def predict(model, x: np.ndarray) -> tuple[float, float]:
    """Posterior (mean, std) at one unit-cube point."""
    means, stds = predict_batch(model, np.asarray(x, dtype=float).reshape(1, -1))
    return float(means[0]), float(stds[0])


def _params(lengthscales, signal_variance=1.0, noise_variance=1e-6) -> KernelParams:
    return KernelParams(
        np.log(np.asarray(lengthscales, dtype=float)),
        math.log(signal_variance),
        math.log(noise_variance),
    )


def _random_problem(rng, n, d):
    x = rng.random((n, d))
    y = rng.standard_normal(n)
    params = _params(rng.uniform(0.2, 2.0, d), rng.uniform(0.5, 3.0), rng.uniform(1e-4, 1e-2))
    return x, y, params


def _dense_posterior(params, x, y, query):
    """Oracle: posterior via a plain dense solve, no Cholesky reuse."""
    n = x.shape[0]
    y_mean = float(np.mean(y))
    y_std = float(np.std(y))
    if y_std < 1e-12:
        y_std = 1.0
    y_s = (y - y_mean) / y_std
    k = np.array([[kernel_matern52(x[i], x[j], params) for j in range(n)] for i in range(n)])
    k_noisy = k + params.noise_variance * np.eye(n)
    k_star = np.array([kernel_matern52(query, x[i], params) for i in range(n)])
    mean_s = k_star @ np.linalg.solve(k_noisy, y_s)
    var_s = (
        params.signal_variance
        + params.noise_variance
        - k_star @ np.linalg.solve(k_noisy, k_star)
    )
    return y_mean + y_std * mean_s, max(var_s, 0.0) * y_std**2


def test_kernel_at_zero_distance_is_signal_variance() -> None:
    params = _params([0.5, 0.5], signal_variance=1.0)
    a = np.array([0.3, 0.7])
    assert kernel_matern52(a, a, params) == pytest.approx(1.0, abs=1e-15)


def test_kernel_at_one_lengthscale() -> None:
    # r = 1: value is (1 + sqrt(5) + 5/3) exp(-sqrt(5)).
    expected = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))
    params = _params([0.25])
    value = kernel_matern52(np.array([0.0]), np.array([0.25]), params)
    assert value == pytest.approx(expected, abs=1e-15)
    assert value == pytest.approx(0.52399, abs=1e-5)


def test_kernel_symmetry_and_dim_mismatch() -> None:
    rng = np.random.default_rng(0)
    params = _params(rng.uniform(0.1, 1.0, 3))
    a, b = rng.random(3), rng.random(3)
    assert kernel_matern52(a, b, params) == kernel_matern52(b, a, params)
    with pytest.raises(ValueError):
        kernel_matern52(np.zeros(2), np.zeros(2), params)


def test_lml_single_point_closed_form() -> None:
    # k(x,x) + noise = 0.9 + 0.1 = 1 and y = 0, so only the constant survives.
    params = _params([1.0], signal_variance=0.9, noise_variance=0.1)
    value, _ = log_marginal_likelihood(params, np.array([[0.5]]), np.array([0.0]))
    assert value == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-12)
    assert value == pytest.approx(-0.91894, abs=1e-5)


def test_lml_zero_targets_drop_the_data_term() -> None:
    rng = np.random.default_rng(3)
    x = rng.random((5, 2))
    params = _params([0.4, 0.6], 1.5, 1e-3)
    value, _ = log_marginal_likelihood(params, x, np.zeros(5))
    k = np.array([[kernel_matern52(x[i], x[j], params) for j in range(5)] for i in range(5)])
    chol = np.linalg.cholesky(k + params.noise_variance * np.eye(5))
    expected = -float(np.sum(np.log(np.diag(chol)))) - 2.5 * math.log(2.0 * math.pi)
    assert value == pytest.approx(expected, abs=1e-10)


def test_lml_gradient_matches_central_differences() -> None:
    rng = np.random.default_rng(7)
    x, y, params = _random_problem(rng, 6, 3)
    _, grad = log_marginal_likelihood(params, x, y)
    theta = params.to_vector()
    h = 1e-5
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        v_up, _ = log_marginal_likelihood(KernelParams.from_vector(up), x, y)
        v_down, _ = log_marginal_likelihood(KernelParams.from_vector(down), x, y)
        fd = (v_up - v_down) / (2.0 * h)
        assert abs(grad[j] - fd) / max(abs(fd), 1e-6) < 1e-4


def _dense_lml(params, x, y):
    """Oracle: GPML Alg. 2.1 / eq. 5.9 with a dense inverse, one dimension at a time.

    Uses the jitter the factorization needs on this kernel; returns it too.
    """
    n, d = x.shape
    diff2 = (x[:, None, :] - x[None, :, :]) ** 2
    ls2 = params.lengthscales**2
    sq = np.zeros((n, n))
    for j in range(d):
        sq += diff2[:, :, j] / ls2[j]
    r = np.sqrt(sq)
    decay = np.exp(-math.sqrt(5.0) * r)
    k = params.signal_variance * (1.0 + math.sqrt(5.0) * r + (5.0 / 3.0) * sq) * decay
    k_noisy = k + params.noise_variance * np.eye(n)
    _, jitter = gp._chol_with_jitter(k_noisy)
    k_noisy += jitter * np.eye(n)
    k_inv = np.linalg.inv(k_noisy)
    alpha = k_inv @ y
    value = -0.5 * y @ alpha - 0.5 * np.linalg.slogdet(k_noisy)[1] - 0.5 * n * math.log(2.0 * math.pi)
    w = np.outer(alpha, alpha) - k_inv
    envelope = params.signal_variance * (5.0 / 3.0) * (1.0 + math.sqrt(5.0) * r) * decay
    grad = [0.5 * np.sum(w * envelope * diff2[:, :, j] / ls2[j]) for j in range(d)]
    grad += [0.5 * np.sum(w * k), 0.5 * params.noise_variance * np.trace(w)]
    return value, np.array(grad), jitter


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("n", [2, 15, 60, 115])
def test_lml_matches_dense_oracle(n, d) -> None:
    x, y, params = _random_problem(np.random.default_rng([n, d]), n, d)
    value, grad = log_marginal_likelihood(params, x, y)
    ref_value, ref_grad, _ = _dense_lml(params, x, y)
    np.testing.assert_allclose(value, ref_value, rtol=1e-9)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-9)


def test_lml_matches_dense_oracle_with_jitter(monkeypatch) -> None:
    """Duplicate rows at the noise floor, factorized with jitter 1e-4.

    A Matern matrix that truly fails to factorize at the noise floor is
    conditioned near 1/eps, where no two solvers agree to 1e-9. So the
    factorization here reports failure until the diagonal carries 1e-4 of
    jitter, and the oracle must see the same jittered matrix.
    """
    real_dpotrf = gp.dpotrf

    def dpotrf(a, **kwargs):
        c, info = real_dpotrf(a, **kwargs)
        return c, (info if a[0, 0] > 1.0 + 5e-5 else 1)

    monkeypatch.setattr(gp, "dpotrf", dpotrf)
    rng = np.random.default_rng(31)
    # Repeated points of a deterministic function: equal targets.
    x = np.repeat(rng.random((8, 2)), 2, axis=0)
    y = np.repeat(rng.standard_normal(8), 2)
    params = _params([0.3, 0.5], signal_variance=1.0, noise_variance=gp.NOISE_FLOOR)
    value, grad = log_marginal_likelihood(params, x, y)
    ref_value, ref_grad, jitter = _dense_lml(params, x, y)
    assert jitter == 1e-4
    np.testing.assert_allclose(value, ref_value, rtol=1e-9)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-9)


def test_fit_raises_when_every_ascent_fails(monkeypatch) -> None:
    def never_factorizes(k_noisy):
        raise GpFitError("Cholesky factorization failed up to jitter 0.0001")

    monkeypatch.setattr(gp, "_chol_with_jitter", never_factorizes)
    x = np.random.default_rng(37).random((6, 2))
    with pytest.raises(GpFitError, match="all 3 likelihood ascents failed"):
        fit(x, x.sum(axis=1), restarts=3, rng=0)


def test_fit_handles_duplicate_inputs_with_distinct_targets() -> None:
    x = np.array([[0.4, 0.4], [0.4, 0.4]])
    y = np.array([0.0, 1.0])
    model = fit(x, y, restarts=4, rng=0)
    # The only consistent explanation is observation noise.
    assert model.params.noise_variance > 1e-2


def test_fit_constant_targets_predicts_the_constant() -> None:
    x = np.linspace(0.0, 1.0, 6)[:, None]
    y = np.full(6, 3.25)
    model = fit(x, y, restarts=4, rng=1)
    assert model.y_std == 1.0
    for q in (0.05, 0.31, 0.99):
        assert predict(model, np.array([q]))[0] == pytest.approx(3.25, abs=1e-9)


def test_fit_interpolates_linear_data() -> None:
    x = np.linspace(0.0, 1.0, 5)[:, None]
    y = x.ravel().copy()
    model = fit(x, y, restarts=8, rng=42)
    for xi, yi in zip(x, y):
        mean, _ = predict(model, xi)
        assert abs(mean - yi) < 1e-3
        assert abs(mean - yi) < 1e-3 * model.y_std


def test_predict_reverts_to_prior_far_from_data() -> None:
    params = _params([0.02, 0.02], signal_variance=2.0, noise_variance=0.5)
    x = np.random.default_rng(5).random((8, 2)) * 0.05
    y = np.array([1.0, 2.0, 0.5, 1.5, 2.5, 0.8, 1.2, 1.8])
    model = build_model(x, y, params)
    mean, std = predict(model, np.array([0.95, 0.95]))
    prior_std = math.sqrt(2.0 + 0.5) * model.y_std
    assert mean == pytest.approx(model.y_mean, rel=1e-3, abs=1e-3)
    assert std == pytest.approx(prior_std, rel=1e-3)


def test_conditioning_reduces_variance_at_observed_point() -> None:
    params = _params([0.3], signal_variance=1.0, noise_variance=1e-4)
    model = build_model(np.array([[0.5]]), np.array([0.7]), params)
    _, std = predict(model, np.array([0.5]))
    prior_std = math.sqrt(1.0 + 1e-4) * model.y_std
    assert std < prior_std


def test_posterior_matches_dense_solve_oracle() -> None:
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(3, 20))
        d = int(rng.integers(1, 5))
        x, y, params = _random_problem(rng, n, d)
        model = build_model(x, y, params)
        for _ in range(4):
            query = rng.random(d)
            mean, std = predict(model, query)
            mean_ref, var_ref = _dense_posterior(params, x, y, query)
            assert abs(mean - mean_ref) < 1e-8
            assert abs(std**2 - var_ref) < 1e-8


def test_standardized_variance_bounded_by_prior() -> None:
    rng = np.random.default_rng(19)
    x, y, params = _random_problem(rng, 12, 3)
    model = build_model(x, y, params)
    queries = rng.random((200, 3))
    _, stds = predict_batch(model, queries)
    assert np.all(stds >= 0.0)
    var_standardized = (stds / model.y_std) ** 2
    assert np.all(var_standardized <= params.signal_variance + params.noise_variance + 1e-8)


def test_predict_batch_equals_the_triangular_solve_and_rejects_a_singular_factor() -> None:
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(31)
    for n, m in ((6, 4), (20, 12), (46, 1024)):
        x, y, params = _random_problem(rng, n, 2)
        model = build_model(x, y, params)
        queries = rng.random((m, 2))
        _, stds = predict_batch(model, queries)
        k_star = _cross_kernel(queries, model.train_x, params)
        v = solve_triangular(model.chol, k_star.T, lower=True, check_finite=False)
        var = np.maximum(params.signal_variance + params.noise_variance - np.einsum("ij,ij->j", v, v), 0.0)
        assert stds.tobytes() == (model.y_std * np.sqrt(var)).tobytes()
    chol = model.chol.copy()
    chol[3, 3] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="info=4"):
        predict_batch(dataclasses.replace(model, chol=chol), queries)


def _uncached_predict_batch(model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: predict_batch as it was before GpModel carried its posterior constants."""
    k_star = _cross_kernel(x, model.train_x, model.params)
    mean_s = k_star @ model.alpha
    v, info = dtrtrs(model.chol, k_star.T, lower=1)
    assert info == 0
    prior_var = model.params.signal_variance + model.params.noise_variance
    var_s = prior_var - np.einsum("ij,ij->j", v, v)
    np.maximum(var_s, 0.0, out=var_s)
    return model.y_mean + model.y_std * mean_s, model.y_std * np.sqrt(var_s)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_predict_batch_matches_the_uncached_kernel_bit_for_bit(d) -> None:
    rng = np.random.default_rng([41, d])
    for n in (6, 21, 46):
        x = rng.random((n, d))
        y = np.sin(4.0 * x).sum(axis=1) + rng.normal(0.0, 0.1, n)
        model = fit(x, y, restarts=2, rng=n)
        for m in (1, 2 * d, 1024):
            queries = rng.random((m, d))
            means, stds = predict_batch(model, queries)
            ref_means, ref_stds = _uncached_predict_batch(model, queries)
            assert means.tobytes() == ref_means.tobytes(), (n, m)
            assert stds.tobytes() == ref_stds.tobytes(), (n, m)


def _fit_ascents(monkeypatch, x: np.ndarray, y: np.ndarray, restarts: int) -> list[tuple]:
    """(objective, x0, bounds) of every L-BFGS-B ascent that fit(x, y) runs."""
    ascents = []
    real_minimize = gp.minimize

    def record(fun, x0, bounds, maxiter):
        ascents.append((fun, np.array(x0), bounds))
        return real_minimize(fun, x0, bounds, maxiter)

    with monkeypatch.context() as patch:
        patch.setattr(gp, "minimize", record)
        fit(x, y, restarts=restarts, rng=0)
    return ascents


def _assert_minimize_matches_scipy(fun, x0, bounds, maxiter):
    """gp.minimize against scipy.optimize.minimize, bit for bit; returns scipy's result."""
    from scipy.optimize import minimize as scipy_minimize

    ours = gp.minimize(fun, x0, bounds, maxiter)
    ref = scipy_minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds, options={"maxiter": maxiter})
    assert ours.x.tobytes() == ref.x.tobytes()
    assert ours.fun == ref.fun
    assert (ours.nfev, ours.nit, ours.success, ours.message) == (ref.nfev, ref.nit, ref.success, ref.message)
    return ref


def test_minimize_matches_scipy_lbfgsb_bit_for_bit(monkeypatch) -> None:
    # Likelihood ascents on a sphere, as on f1: at this n most of them end with
    # noise at its floor, and many with the line search failing on round-off.
    messages = []
    for d in (1, 2, 5):
        rng = np.random.default_rng([43, d])
        x = rng.random((30, d))
        y = ((x - 0.3) ** 2).sum(axis=1)
        for fun, x0, bounds in _fit_ascents(monkeypatch, x, y, restarts=6):
            for maxiter in (200, 3):
                messages.append(_assert_minimize_matches_scipy(fun, x0, bounds, maxiter).message)
    assert any(m.startswith("CONVERGENCE") for m in messages)
    assert any(m.startswith("ABNORMAL") for m in messages)
    assert any(m == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT" for m in messages)


def test_minimize_matches_scipy_on_a_failing_objective(monkeypatch) -> None:
    # Where the prior variance sv + nv exceeds 3, the Cholesky "fails", so the
    # objective returns its 1e25 failure value with a zero gradient there.
    real_chol = gp._chol_with_jitter

    def chol_failing_at_large_variance(k_noisy):
        if k_noisy[0, 0] > 3.0:
            raise GpFitError("Cholesky factorization failed up to jitter 0.0001")
        return real_chol(k_noisy)

    monkeypatch.setattr(gp, "_chol_with_jitter", chol_failing_at_large_variance)
    rng = np.random.default_rng(47)
    x = rng.random((12, 2))
    y = np.sin(5.0 * x[:, 0]) + x[:, 1]
    values = []
    for fun, x0, bounds in _fit_ascents(monkeypatch, x, y, restarts=8):

        def recorded(theta, fun=fun):
            value, grad = fun(theta)
            values.append(value)
            return value, grad

        _assert_minimize_matches_scipy(recorded, x0, bounds, 200)
    assert gp._FAILED_OBJECTIVE in values


def test_cholesky_reconstructs_noisy_kernel() -> None:
    rng = np.random.default_rng(23)
    x, y, params = _random_problem(rng, 10, 2)
    model = build_model(x, y, params)
    n = x.shape[0]
    k = np.array([[kernel_matern52(x[i], x[j], params) for j in range(n)] for i in range(n)])
    k_noisy = k + params.noise_variance * np.eye(n)
    recon = model.chol @ model.chol.T
    rel = np.linalg.norm(recon - k_noisy) / np.linalg.norm(k_noisy)
    assert rel < 1e-8


def test_fit_is_deterministic_in_the_seed() -> None:
    rng = np.random.default_rng(29)
    x = rng.random((9, 2))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1]
    a = fit(x, y, restarts=5, rng=1234)
    b = fit(x, y, restarts=5, rng=1234)
    assert np.array_equal(a.params.log_lengthscales, b.params.log_lengthscales)
    assert a.params.log_signal_variance == b.params.log_signal_variance
    assert a.params.log_noise_variance == b.params.log_noise_variance


def test_fit_input_validation() -> None:
    with pytest.raises(ValueError):
        fit(np.array([[0.5]]), np.array([1.0]), restarts=2, rng=0)  # n < 2
    with pytest.raises(ValueError):
        fit(np.array([[0.1], [0.2]]), np.array([1.0, math.nan]), restarts=2, rng=0)
    with pytest.raises(ValueError):
        fit(np.array([[0.1], [3.5]]), np.array([1.0, 2.0]), restarts=2, rng=0)  # outside unit cube


def test_build_model_fit_the_likelihood_and_predict_batch_name_a_malformed_input() -> None:
    params = _params([0.3, 0.5])
    x, y = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.3]]), np.array([0.0, 1.0, 2.0])
    nan_x = x.copy()
    nan_x[1, 0] = math.nan
    cube = np.full((3, 3), 0.5)
    model = build_model(x, y, params)
    cases = [
        (lambda: build_model(x[0], y[:1], params), r"train_x must be an \(n, d\) matrix"),
        (lambda: fit(x, y[:2], restarts=2, rng=0), "train_x and train_y disagree on n"),
        (lambda: build_model(nan_x, y, params), "train_x must be finite"),
        (lambda: build_model(cube, y, params), "train_x dim 3 does not match 2 lengthscales"),
        (lambda: log_marginal_likelihood(params, cube, y), "train_x dim 3 does not match 2 lengthscales"),
        (lambda: fit(x, y, restarts=0, rng=0), "restarts must be >= 1"),
        (lambda: predict_batch(model, x[0]), r"expected an \(m, 2\) matrix, got shape \(2,\)"),
        (lambda: predict_batch(model, cube), r"expected an \(m, 2\) matrix, got shape \(3, 3\)"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()


def test_kernel_params_name_a_value_that_is_not_finite_or_a_lengthscale_matrix() -> None:
    cases = [
        ((np.zeros((2, 2)), 0.0, 0.0), "log_lengthscales must be a 1-d vector"),
        ((np.zeros(0), 0.0, 0.0), "log_lengthscales must be a 1-d vector"),
        ((np.array([0.0, math.inf]), 0.0, 0.0), "log_lengthscales must be finite"),
        ((np.zeros(2), math.nan, 0.0), "log_signal_variance must be finite"),
        ((np.zeros(2), 0.0, -math.inf), "log_noise_variance must be finite"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            KernelParams(*args)


def test_noise_floor_is_enforced() -> None:
    with pytest.raises(ValueError):
        KernelParams(np.zeros(1), 0.0, math.log(1e-12))


def test_chol_failure_reports_jitter() -> None:
    # A wildly non-PSD "kernel" cannot be rescued by any jitter level.
    from afsched.gp import _chol_with_jitter

    bad = np.array([[1.0, 5.0], [5.0, 1.0]])
    with pytest.raises(GpFitError, match=r"failed up to jitter 0\.0001$"):
        _chol_with_jitter(bad)
