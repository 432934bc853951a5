"""A least-squares objective for tests of the MAP driver, lbfgs.minimize.

J(m) = 1/2 ||r(m)||^2_{Gn^-1} + 1/2 ||m - m_pr||^2_{Gpr^-1}, the prior
term optional, through the driver's value/linearize interface with the
Gauss-Newton Hessian Jr^T Gn^-1 Jr + Gpr^-1.
"""
import numpy as np

from gridest.bayes import GaussianPrior
from gridest.integrator import StepFailure

SHIFT = 5.0


class LeastSquares:
    """residual(m) gives r and jacobian(m) gives dr/dm; noise_var is Gn's
    diagonal (a scalar or one entry per residual).  The objective records
    every point it is asked about, and with fail_trials > 0 the first that
    many trial points fail like a forward solve that does not converge."""

    def __init__(self, residual, jacobian, noise_var=1.0, prior=None,
                 fail_trials=0):
        self.residual = residual
        self.jacobian = jacobian
        self.noise_var = noise_var
        self.prior = prior
        self.fail_trials = fail_trials
        self.points = []

    @classmethod
    def linear(cls, a, d, noise_var=1.0, prior=None, **kwargs):
        """r(m) = A m - d: one full Gauss-Newton step is exact."""
        return cls(lambda m: a @ m - d, lambda m: a, noise_var, prior,
                   **kwargs)

    def _weights(self, r):
        return np.broadcast_to(1.0 / np.asarray(self.noise_var, float), r.shape)

    def fun(self, m):
        r = self.residual(m)
        j = 0.5 * float(r @ (r * self._weights(r)))
        return j if self.prior is None else j + self.prior.neg_log(m)

    def gradient(self, m):
        r = self.residual(m)
        g = self.jacobian(m).T @ (r * self._weights(r))
        if self.prior is not None:
            g = g + (m - self.prior.mean) / self.prior.var
        return g

    def gauss_newton(self, m):
        jr = self.jacobian(m)
        h = jr.T @ (jr * self._weights(self.residual(m))[:, None])
        if self.prior is not None:
            h = h + np.diag(1.0 / self.prior.var)
        return h

    def value(self, m):
        self.points.append(m.copy())
        if self.fail_trials > 0:
            self.fail_trials -= 1
            raise StepFailure("Newton at t=0.1 stalled")
        return self.fun(m)

    def linearize(self, m):
        self.points.append(m.copy())
        return self.fun(m), self.gradient(m), self.gauss_newton(m)


def shifted_linear(a, d, noise_var, prior):
    """The linear objective of A m - d and prior in m' = m + SHIFT, which
    moves prior means drawn in [-1, 1] above the driver's lower bound.
    Its MAP is the original MAP plus SHIFT; its Hessian is unchanged."""
    shifted = GaussianPrior(mean=prior.mean + SHIFT, var=prior.var)
    return LeastSquares.linear(a, d + a @ np.full(a.shape[1], SHIFT),
                               noise_var, shifted)
