"""Linear Support Vector Regression.

The paper (Section 4.2) restricts itself to the linear kernel ("Due to the
high computational complexity of non-linear kernels, in the remaining of the
paper we focus on linear SVR (LSVR)") and sweeps ``epsilon`` in [0.5, 2.5]
and ``C`` in [0.01, 100] during grid search (Section 5).

This implementation solves the primal problem

    min_{w, b}  0.5 ||w||^2  +  C * sum_i loss(y_i - (x_i . w + b))

with L-BFGS-B.  Two losses are supported:

* ``"squared_epsilon_insensitive"`` — ``max(0, |r| - epsilon)^2``, which is
  continuously differentiable and the default (fast, stable);
* ``"epsilon_insensitive"`` — the classic L1 tube loss, smoothed near the
  kink by a small Huber transition so quasi-Newton steps stay well-behaved.

``scipy.optimize`` is imported inside :meth:`LinearSVR.fit`, not at module
level: LSVR is the only model family that needs an outside solver, so a
process (a served fleet, say) that never fits an LSVR never loads scipy.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, RegressorMixin
from .linear import _BaseLinear
from .validation import check_X_y

__all__ = ["LinearSVR"]

_LOSSES = ("epsilon_insensitive", "squared_epsilon_insensitive")


def _tube_loss_grad(
    residual: np.ndarray, epsilon: float, loss: str, smooth: float
) -> tuple[float, np.ndarray]:
    """Return (sum of losses, d loss / d residual) for the tube loss."""
    excess = np.abs(residual) - epsilon
    active = excess > 0.0
    z = np.where(active, excess, 0.0)
    sign = np.sign(residual)
    if loss == "squared_epsilon_insensitive":
        value = float(np.sum(z**2))
        grad = 2.0 * z * sign
    else:
        # Huber-smoothed |.|: quadratic within `smooth` of the kink.
        quad = z < smooth
        value = float(np.sum(np.where(quad, z**2 / (2.0 * smooth), z - smooth / 2.0)))
        grad = np.where(quad, z / smooth, 1.0) * sign
        grad[~active] = 0.0
    return value, grad


class LinearSVR(_BaseLinear):
    """Linear epsilon-insensitive support vector regression.

    Parameters
    ----------
    epsilon:
        Half-width of the no-penalty tube around the regression line.
    C:
        Inverse regularization strength; larger means less regularization.
    loss:
        ``"squared_epsilon_insensitive"`` (default) or
        ``"epsilon_insensitive"``.
    fit_intercept:
        Learn a bias term (not regularized).
    max_iter:
        L-BFGS iteration cap.
    tol:
        Solver gradient tolerance.
    """

    def __init__(
        self,
        epsilon: float = 0.0,
        C: float = 1.0,
        loss: str = "squared_epsilon_insensitive",
        fit_intercept: bool = True,
        max_iter: int = 1000,
        tol: float = 1e-6,
    ):
        self.epsilon = epsilon
        self.C = C
        self.loss = loss
        self.fit_intercept = fit_intercept
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}.")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}.")
        if self.loss not in _LOSSES:
            raise ValueError(f"loss must be one of {_LOSSES}, got {self.loss!r}.")

        n_samples, n_features = X.shape
        # Smoothing width for the L1 tube: tiny relative to target scale.
        y_scale = float(np.std(y)) or 1.0
        smooth = 1e-3 * y_scale

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            w = theta[:n_features]
            b = theta[n_features] if self.fit_intercept else 0.0
            residual = y - (X @ w + b)
            loss_val, dloss_dr = _tube_loss_grad(
                residual, self.epsilon, self.loss, smooth
            )
            value = 0.5 * float(w @ w) + self.C * loss_val
            # d residual / d w = -X, d residual / d b = -1.
            grad_w = w - self.C * (X.T @ dloss_dr)
            if self.fit_intercept:
                grad_b = -self.C * float(np.sum(dloss_dr))
                grad = np.concatenate([grad_w, [grad_b]])
            else:
                grad = grad_w
            return value, grad

        from scipy.optimize import minimize

        size = n_features + (1 if self.fit_intercept else 0)
        result = minimize(
            objective,
            x0=np.zeros(size),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        self.coef_ = result.x[:n_features]
        self.intercept_ = float(result.x[n_features]) if self.fit_intercept else 0.0
        self.n_iter_ = int(result.nit)
        self.converged_ = bool(result.success)
        self.n_features_in_ = n_features
        return self
