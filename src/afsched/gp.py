"""Gaussian-process regression over the unit cube.

Matern 5/2 kernel with per-dimension (ARD) lengthscales, learned noise with a
hard floor, outputs standardized to zero mean / unit variance. Hyperparameters
are chosen by maximizing the log marginal likelihood with a multi-start
quasi-Newton ascent on analytic gradients; each ascent is an L-BFGS-B loop
that drives scipy's reverse-communication entry point `setulb` directly.
Inputs are expected to be pre-scaled to [0, 1]^d by the caller; predictions
are de-standardized back to the original output units and include the
learned observation noise. A fitted model carries the posterior constants
that predictions need, so a prediction does only per-query work.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs
from scipy.optimize import OptimizeResult
from scipy.optimize._lbfgsb import setulb
from scipy.optimize._lbfgsb_py import status_messages, task_messages

__all__ = [
    "NOISE_FLOOR",
    "GpFitError",
    "KernelParams",
    "GpModel",
    "log_marginal_likelihood",
    "fit",
    "check_minimize",
    "build_model",
    "predict_batch",
]

NOISE_FLOOR = 1e-10

_SQRT5 = math.sqrt(5.0)
# Escalation ladder applied to K + noise*I when the factorization fails.
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
# Negative likelihood fit's objective returns when no jitter rescues the
# Cholesky, steering L-BFGS away from that region.
_FAILED_OBJECTIVE = 1e25

# Log-uniform sampling ranges for multi-start initial points.
_START_LENGTHSCALE = (1e-2, 10.0)
_START_SIGNAL_VAR = (1e-2, 1e2)
_START_NOISE_VAR = (1e-8, 1e-2)

# Box constraints for the optimizer, in log space.
_BOUND_LENGTHSCALE = (math.log(1e-3), math.log(1e3))
_BOUND_SIGNAL_VAR = (math.log(1e-8), math.log(1e4))
_BOUND_NOISE_VAR = (math.log(NOISE_FLOOR), math.log(1e1))

# L-BFGS-B settings: scipy.optimize.minimize's defaults for method="L-BFGS-B".
_LBFGS_MEMORY = 10
_LBFGS_FACTR = 1e7  # its ftol 2.2204460492503131e-09 over machine epsilon
_LBFGS_PGTOL = 1e-5
_LBFGS_MAXLS = 20
_LBFGS_MAXFUN = 15000


class GpFitError(RuntimeError):
    """Raised when the kernel matrix cannot be factorized or the fit fails."""


@dataclass(frozen=True)
class KernelParams:
    """Kernel hyperparameters in log space."""

    log_lengthscales: np.ndarray
    log_signal_variance: float
    log_noise_variance: float

    def __post_init__(self) -> None:
        ls = np.asarray(self.log_lengthscales, dtype=float)
        object.__setattr__(self, "log_lengthscales", ls)
        if ls.ndim != 1 or ls.size < 1:
            raise ValueError("log_lengthscales must be a 1-d vector")
        if not np.all(np.isfinite(ls)):
            raise ValueError("log_lengthscales must be finite")
        if not math.isfinite(self.log_signal_variance):
            raise ValueError("log_signal_variance must be finite")
        if not math.isfinite(self.log_noise_variance):
            raise ValueError("log_noise_variance must be finite")
        if self.log_noise_variance < math.log(NOISE_FLOOR) - 1e-12:
            raise ValueError(f"log_noise_variance below the noise floor log({NOISE_FLOOR})")

    @property
    def dim(self) -> int:
        return self.log_lengthscales.size

    @property
    def lengthscales(self) -> np.ndarray:
        return np.exp(self.log_lengthscales)

    @property
    def signal_variance(self) -> float:
        return math.exp(self.log_signal_variance)

    @property
    def noise_variance(self) -> float:
        return math.exp(self.log_noise_variance)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.log_lengthscales, [self.log_signal_variance, self.log_noise_variance]])

    @staticmethod
    def from_vector(theta: np.ndarray) -> "KernelParams":
        theta = np.asarray(theta, dtype=float)
        return KernelParams(theta[:-2].copy(), float(theta[-2]), float(theta[-1]))


@dataclass(frozen=True, eq=False)
class GpModel:
    """Fitted posterior state: hyperparameters, data and Cholesky factor.

    The last three fields are constants of the posterior that build_model
    computes once, so that predict_batch does only per-query work.
    """

    params: KernelParams
    train_x: np.ndarray
    y_mean: float
    y_std: float
    chol: np.ndarray
    alpha: np.ndarray
    scaled_x: np.ndarray  # train_x / lengthscales
    scaled_sqnorms: np.ndarray  # squared row norms of scaled_x
    prior_var: float  # signal variance + noise variance

    @property
    def dim(self) -> int:
        return self.train_x.shape[1]


def _sq_diffs(x: np.ndarray) -> np.ndarray:
    """Squared coordinate differences of all row pairs, shape (n * n, d).

    They do not depend on the hyperparameters, so a fit builds them once.
    """
    diff = x[:, None, :] - x[None, :, :]
    return (diff * diff).reshape(-1, x.shape[1])


def _chol_with_jitter(k_noisy: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky of a noisy kernel matrix, escalating diagonal jitter.

    The factor's upper triangle is zero. `k_noisy` is not modified.
    """
    n = k_noisy.shape[0]
    work = k_noisy
    for jitter in _JITTERS:
        if jitter:
            work = k_noisy.copy()
            work.flat[:: n + 1] += jitter
        L, info = dpotrf(work, lower=1, clean=1)
        if info == 0:
            return L, jitter
    raise GpFitError(f"Cholesky factorization failed up to jitter {_JITTERS[-1]:g}")


def _factorize(
    inv_sq_ls: np.ndarray, sv: float, nv: float, raw_sq: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Kernel matrix K, gradient envelope, Cholesky factor of K + nv I and alpha.

    `inv_sq_ls` holds 1 / ls_j^2, `sv` and `nv` are the signal and noise
    variances and `raw_sq` comes from _sq_diffs. The envelope E gives
    dK/d(log ls_j) = E * (squared differences in j) / ls_j^2.
    """
    n = y.size
    sq = (raw_sq @ inv_sq_ls).reshape(n, n)
    r5 = np.sqrt(sq)
    r5 *= _SQRT5
    decay = np.exp(-r5)
    # k = sv (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r), split so that its
    # first part, times 5/3, is the envelope; r5's buffer becomes the envelope.
    envelope = r5
    envelope += 1.0
    envelope *= decay
    envelope *= sv
    k = sq * ((5.0 / 3.0) * sv)
    k *= decay
    k += envelope
    envelope *= 5.0 / 3.0

    k_noisy = k.copy()
    k_noisy.reshape(-1)[:: n + 1] += nv  # the diagonal, as a view: the copy is C-ordered
    L, _ = _chol_with_jitter(k_noisy)
    alpha, _ = dpotrs(L, y, lower=1)
    return k, envelope, L, alpha


def _lml_and_grad(theta: np.ndarray, raw_sq: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and its gradient at log-parameters theta (GPML Alg. 2.1, eq. 5.9)."""
    n = y.size
    inv_sq_ls = np.exp(-2.0 * theta[:-2])
    nv = math.exp(theta[-1])
    k, envelope, L, alpha = _factorize(inv_sq_ls, math.exp(theta[-2]), nv, raw_sq, y)
    value = -0.5 * float(y @ alpha) - float(np.log(L.diagonal()).sum()) - 0.5 * n * math.log(2.0 * math.pi)

    # W = alpha alpha' - K^-1; d(lml)/d(theta_j) = 0.5 tr(W dK/d(theta_j)).
    # dpotri fills the lower triangle of K^-1 and leaves L's zero upper one.
    lower_inv, _ = dpotri(L, lower=1)
    k_inv = lower_inv + lower_inv.T
    k_inv.flat[:: n + 1] *= 0.5
    w = alpha[:, None] * alpha
    w -= k_inv

    grad = np.empty(theta.size)
    grad[-2] = 0.5 * float(np.vdot(w, k))           # dK/d(log sv) = K
    grad[-1] = 0.5 * nv * float(w.trace())          # dK/d(log nv) = nv I
    w *= envelope
    grad[:-2] = (0.5 * (w.ravel() @ raw_sq)) * inv_sq_ls
    return value, grad


def log_marginal_likelihood(
    params: KernelParams, train_x: np.ndarray, train_y_standardized: np.ndarray
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and its gradient w.r.t. all log-parameters.

    Value: -0.5 y' a - sum(log diag L) - (n/2) log 2 pi with a = (K + sv_n I)^-1 y.
    Gradient order matches KernelParams.to_vector().
    """
    x = np.asarray(train_x, dtype=float)
    y = np.asarray(train_y_standardized, dtype=float)
    if x.shape[1] != params.dim:
        raise ValueError(f"train_x dim {x.shape[1]} does not match {params.dim} lengthscales")
    return _lml_and_grad(params.to_vector(), _sq_diffs(x), y)


def _standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    y_mean = float(np.mean(y))
    y_std = float(np.std(y))
    if y_std < 1e-12:
        y_std = 1.0
    return (y - y_mean) / y_std, y_mean, y_std


def _validate_inputs(train_x: np.ndarray, train_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(train_x, dtype=float)
    y = np.asarray(train_y, dtype=float).ravel()
    if x.ndim != 2:
        raise ValueError("train_x must be an (n, d) matrix")
    if x.shape[0] != y.size:
        raise ValueError("train_x and train_y disagree on n")
    if not np.all(np.isfinite(x)):
        raise ValueError("train_x must be finite")
    if not np.all(np.isfinite(y)):
        raise ValueError("train_y must be finite")
    if np.any(x < -1e-8) or np.any(x > 1.0 + 1e-8):
        raise ValueError("train_x must lie in the unit cube")
    return x, y


def build_model(train_x: np.ndarray, train_y: np.ndarray, params: KernelParams) -> GpModel:
    """Assemble a model at fixed hyperparameters (no likelihood ascent)."""
    x, y = _validate_inputs(train_x, train_y)
    if x.shape[1] != params.dim:
        raise ValueError(f"train_x dim {x.shape[1]} does not match {params.dim} lengthscales")
    y_s, y_mean, y_std = _standardize(y)
    _, _, L, alpha = _factorize(
        np.exp(-2.0 * params.log_lengthscales), params.signal_variance, params.noise_variance, _sq_diffs(x), y_s
    )
    scaled_x = x / params.lengthscales
    return GpModel(
        params=params,
        train_x=x,
        y_mean=y_mean,
        y_std=y_std,
        chol=L,
        alpha=alpha,
        scaled_x=scaled_x,
        scaled_sqnorms=(scaled_x * scaled_x).sum(axis=1),
        prior_var=params.signal_variance + params.noise_variance,
    )


def minimize(fun, x0: np.ndarray, bounds, maxiter: int) -> OptimizeResult:
    """Minimize fun(x) -> (value, gradient) over a box with L-BFGS-B.

    L-BFGS-B (Zhu, Byrd, Lu & Nocedal, ACM TOMS 23(4), 1997) is a
    reverse-communication routine: scipy's `setulb` returns whenever it needs
    f and g at x or has finished an iteration. This is the loop of
    scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
    bounds=bounds, options={"maxiter": maxiter}) without its wrappers: the
    same settings, the same evaluation points and the same x, fun, nfev, nit,
    success and message. `bounds` holds one finite (lower, upper) pair per
    coordinate; x0 is clipped into them. Like scipy, it evaluates at x0 first
    and calls `fun` (on a copy of x) again only at a point that differs from
    the last one.

    It keeps scipy's name so that the benchmark's `gp.lbfgs` span, which
    wraps `gp.minimize`, still times and counts each run.
    """
    lower, upper = np.array(bounds, dtype=float).T.copy()
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    n, m = x.size, _LBFGS_MEMORY
    nbd = np.full(n, 2, dtype=np.int32)  # 2: bounded below and above
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    # The last point evaluated, as a list: comparing lists of floats is
    # scipy's np.array_equal test (-0.0 == 0.0, nan != nan) at a tenth of the cost.
    seen = x.tolist()
    f_seen, g_seen = fun(x.copy())
    nfev, nit = 1, 0
    f, g = np.array(0.0), np.zeros(n)
    while True:
        setulb(m, x, lower, upper, nbd, f, g, _LBFGS_FACTR, _LBFGS_PGTOL, wa, iwa, task, lsave, isave, dsave,
               _LBFGS_MAXLS, ln_task)
        if task[0] == 3:  # FG: wants f and g at x
            if x.tolist() != seen:
                seen = x.tolist()
                f_seen, g_seen = fun(x.copy())
                nfev += 1
            # setulb may write to g; the copy keeps g_seen as fun returned it.
            f, g = f_seen, g_seen.copy()
        elif task[0] == 1:  # NEW_X: an iteration is done
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504  # STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT
            elif nfev > _LBFGS_MAXFUN:
                task[:] = 5, 502  # STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT
        else:
            break
    return OptimizeResult(
        x=x,
        fun=f,
        nfev=nfev,
        nit=nit,
        success=bool(task[0] == 4),  # CONVERGENCE
        message=f"{status_messages[task[0]]}: {task_messages[task[1]]}",
    )


def check_minimize() -> None:
    """Raise GpFitError unless minimize finds the minimum of a 2-d quadratic.

    minimize calls scipy's private L-BFGS-B binding `setulb` in its scipy
    1.15+ signature; a scipy that changed it would fail every fit. Call this
    before a grid to fail once, with the cause, instead of once per cell.
    """
    target = np.array([0.25, -0.5])

    def quadratic(x: np.ndarray) -> tuple[float, np.ndarray]:
        return float((x - target) @ (x - target)), 2.0 * (x - target)

    binding = "scipy's L-BFGS-B binding setulb"
    try:
        result = minimize(quadratic, np.zeros(2), [(-1.0, 1.0)] * 2, maxiter=100)
    except Exception as exc:  # whatever a changed binding raises, name it
        raise GpFitError(f"{binding} fails on a 2-d quadratic: {type(exc).__name__}: {exc}") from exc
    if not (result.success and np.allclose(result.x, target, rtol=0.0, atol=1e-6)):
        raise GpFitError(f"{binding} misses the minimum of a 2-d quadratic: x={result.x.tolist()}, {result.message}")


def _ascents(x: np.ndarray, y_s: np.ndarray, starts: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(final negative log likelihood, theta) of a bounded L-BFGS ascent from each row of `starts`, in order.

    `y_s` holds the standardized targets. A module-level function of arrays,
    so that fit can run some of the ascents in another process.
    """
    d = x.shape[1]
    raw_sq = _sq_diffs(x)

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            value, grad = _lml_and_grad(theta, raw_sq, y_s)
        except GpFitError:
            return _FAILED_OBJECTIVE, np.zeros(d + 2)
        return -value, -grad

    bounds = [_BOUND_LENGTHSCALE] * d + [_BOUND_SIGNAL_VAR, _BOUND_NOISE_VAR]
    results = [minimize(objective, start, bounds, maxiter=200) for start in starts]
    return [(result.fun, result.x) for result in results]


def fit(
    train_x: np.ndarray,
    train_y: np.ndarray,
    restarts: int,
    rng: np.random.Generator | int,
    executor: Executor | None = None,
) -> GpModel:
    """Fit kernel hyperparameters by multi-start likelihood ascent.

    Runs `restarts` bounded L-BFGS ascents from log-uniform initial points
    drawn from `rng` and keeps the best final likelihood (first winner on
    ties). Deterministic given (data, restarts, seed). With an `executor`,
    the last restarts // 2 ascents run there as one task while this process
    runs the others; the results are read in restart order, so the model is
    the same bit for bit as without one, provided the executor's workers
    run BLAS on one thread as this process does.
    """
    x, y = _validate_inputs(train_x, train_y)
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least 2 training points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(rng)

    y_s, y_mean, y_std = _standardize(y)

    starts = np.column_stack(
        [
            rng.uniform(math.log(_START_LENGTHSCALE[0]), math.log(_START_LENGTHSCALE[1]), size=(restarts, d)),
            rng.uniform(math.log(_START_SIGNAL_VAR[0]), math.log(_START_SIGNAL_VAR[1]), size=(restarts, 1)),
            rng.uniform(math.log(_START_NOISE_VAR[0]), math.log(_START_NOISE_VAR[1]), size=(restarts, 1)),
        ]
    )
    if executor is None or restarts < 2:
        ascents = _ascents(x, y_s, starts)
    else:
        here = restarts - restarts // 2
        there = executor.submit(_ascents, x, y_s, starts[here:])
        ascents = _ascents(x, y_s, starts[:here]) + there.result()

    best_theta = None
    best_neg = math.inf
    failed = 0
    for value, theta in ascents:
        failed += value >= _FAILED_OBJECTIVE
        if value < best_neg:
            best_neg = float(value)
            best_theta = np.asarray(theta, dtype=float)
    if failed == restarts or best_theta is None or not math.isfinite(best_neg):
        raise GpFitError(
            f"all {restarts} likelihood ascents failed"
            f" ({failed} ended on a kernel matrix no jitter could factorize)"
        )

    return build_model(x, y, KernelParams.from_vector(best_theta))


def predict_batch(model: GpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and stds at unit-cube rows x, shape (m, d).

    Both are de-standardized to the original output units; the stds include
    the learned observation noise.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise ValueError(f"expected an (m, {model.dim}) matrix, got shape {x.shape}")
    # Matern 5/2 cross-kernel k(x, train_x) = sv (1 + sqrt(5) r + 5 r^2 / 3)
    # exp(-sqrt(5) r), r the lengthscale-weighted distance, built in place.
    scaled = x / model.params.lengthscales
    sq = (scaled * scaled).sum(axis=1)[:, None] + model.scaled_sqnorms[None, :] - 2.0 * scaled @ model.scaled_x.T
    np.maximum(sq, 0.0, out=sq)
    r = np.sqrt(sq)
    decay = np.multiply(r, -_SQRT5)
    np.exp(decay, out=decay)
    k_star = np.multiply(r, _SQRT5, out=r)
    k_star += 1.0
    sq *= 5.0 / 3.0
    k_star += sq
    k_star *= model.params.signal_variance
    k_star *= decay
    mean_s = k_star @ model.alpha
    # k_star is not needed after the solve, so dtrtrs may overwrite its transpose.
    v, info = dtrtrs(model.chol, k_star.T, lower=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve with the Cholesky factor failed (LAPACK dtrtrs info={info})")
    var_s = model.prior_var - np.einsum("ij,ij->j", v, v)
    np.maximum(var_s, 0.0, out=var_s)
    means = model.y_mean + model.y_std * mean_s
    stds = model.y_std * np.sqrt(var_s)
    return means, stds
