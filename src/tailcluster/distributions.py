"""Special functions and quantile transforms used by the data generators.

Everything here is exact-distribution machinery: the regularized
incomplete beta function, Student-t CDF and quantile for real-valued
degrees of freedom, the Cauchy CDF, and the Frechet quantile. The
simulation models need these to push uniform or Cauchy variates through
heavy-tailed marginals, so accuracy targets are strict (see the
individual docstrings) and every function is vectorized over its main
argument.
"""

from __future__ import annotations

import math

import numpy as np

from .core import TailClusterError, ValidationError

__all__ = [
    "NonConvergenceError",
    "reg_inc_beta",
    "student_t_cdf",
    "student_t_quantile",
    "cauchy_cdf",
    "frechet_quantile",
]


class NonConvergenceError(TailClusterError, ArithmeticError):
    """An iterative evaluation failed to reach its tolerance."""


# Continued fraction: stop when a Lentz update is within _CF_EPS of 1.
_CF_EPS = 1e-14
_CF_MAX_ITER = 300

# Quantile inversion: Newton until the CDF residual is within _NEWTON_TOL
# in probability space.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 200

_TINY = 1e-300


def _beta_cf(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz iteration).

    Valid and fast for x < (a + 1) / (a + b + 2); callers apply the
    symmetry relation outside that range. Lanes that have converged are
    dropped from the working set so a few slow points do not tax the
    whole batch.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    idx = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _TINY, where=np.abs(d) < _TINY)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _TINY, where=np.abs(d) < _TINY)
        c = 1.0 + aa / c
        np.copyto(c, _TINY, where=np.abs(c) < _TINY)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _TINY, where=np.abs(d) < _TINY)
        c = 1.0 + aa / c
        np.copyto(c, _TINY, where=np.abs(c) < _TINY)
        d = 1.0 / d
        delta = d * c
        h *= delta
        conv = np.abs(delta - 1.0) < _CF_EPS
        if conv.any():
            out[idx[conv]] = h[conv]
            if conv.all():
                return out
            keep = ~conv
            idx, x, c, d, h = idx[keep], x[keep], c[keep], d[keep], h[keep]
    raise NonConvergenceError(
        f"incomplete beta continued fraction did not converge within "
        f"{_CF_MAX_ITER} iterations (a={a}, b={b})"
    )


def reg_inc_beta(x, a: float, b: float):
    """Regularized incomplete beta function I_x(a, b).

    Evaluated by continued fraction on the fast side of the crossover
    point (a + 1) / (a + b + 2) and via the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) on the other side. Absolute error is
    well below 1e-12 over [0, 1] for moderate parameters.

    Args:
        x: evaluation point(s) in [0, 1].
        a, b: positive shape parameters.

    Raises:
        NonConvergenceError: continued fraction stalled (reports a, b).
    """
    if a <= 0 or b <= 0:
        raise ValidationError(f"a and b must be positive, got a={a}, b={b}")
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValidationError("x must lie in [0, 1]")
    out = arr.copy()
    interior = (arr > 0.0) & (arr < 1.0)
    xs = arr[interior]
    if xs.size:
        ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        vals = np.empty_like(xs)
        direct = xs < (a + 1.0) / (a + b + 2.0)
        for use_direct in (True, False):
            sel = direct if use_direct else ~direct
            if not np.any(sel):
                continue
            xx = xs[sel] if use_direct else 1.0 - xs[sel]
            aa, bb = (a, b) if use_direct else (b, a)
            front = np.exp(aa * np.log(xx) + bb * np.log1p(-xx) - ln_beta)
            piece = front * _beta_cf(xx, aa, bb) / aa
            vals[sel] = piece if use_direct else 1.0 - piece
        out[interior] = vals
    return np.clip(out, 0.0, 1.0)


def student_t_cdf(x, v: float):
    """CDF of the Student-t distribution with real degrees of freedom v > 0.

    Evaluated through the incomplete beta function with the argument
    chosen per point so that no catastrophic subtraction occurs: the
    center uses w = x^2/(v + x^2) and the tails use z = v/(v + x^2).
    """
    if v <= 0:
        raise ValidationError(f"degrees of freedom must be positive, got {v}")
    arr = np.asarray(x, dtype=float)
    xx = arr * arr
    cdf = np.full_like(arr, np.nan)
    center = xx <= v
    if np.any(center):
        w = xx[center] / (v + xx[center])
        body = reg_inc_beta(w, 0.5, 0.5 * v)
        cdf[center] = 0.5 + 0.5 * np.sign(arr[center]) * body
    tail = xx > v
    if np.any(tail):
        z = v / (v + xx[tail])
        tail2 = reg_inc_beta(z, 0.5 * v, 0.5)
        cdf[tail] = np.where(arr[tail] >= 0, 1.0 - 0.5 * tail2, 0.5 * tail2)
    return cdf


def _student_t_pdf(x: np.ndarray, v: float, log_const: float) -> np.ndarray:
    return np.exp(log_const - 0.5 * (v + 1.0) * np.log1p(x * x / v))


def _student_t_quantile_newton(u: np.ndarray, v: float) -> np.ndarray:
    """Generic quantile by bracketed Newton iteration in probability space.

    Works on the upper half only (callers fold by symmetry). The start
    bracket is analytic: a center linearization gives a lower bound and
    the polynomial tail bound gives an upper bound; Newton from the lower
    bound increases monotonically because the CDF is concave on x >= 0.
    """
    uu = np.maximum(u, 1.0 - u)
    w = 1.0 - uu  # upper tail mass in (0, 0.5]
    log_const = (
        math.lgamma(0.5 * (v + 1.0)) - math.lgamma(0.5 * v) - 0.5 * math.log(v * math.pi)
    )
    c0 = math.exp(log_const)  # density at 0
    lo = (uu - 0.5) / c0
    # tail bound: P(T > x) <= c0 * v^{(v+1)/2} * x^{-v} / v for x > 0
    hi = np.exp((math.log(c0) + 0.5 * (v + 1.0) * math.log(v) - math.log(v) - np.log(w)) / v)
    hi = np.maximum(hi, lo + 1.0)
    out = np.empty_like(uu)
    idx = np.arange(uu.size)
    x = lo
    for _ in range(_NEWTON_MAX_ITER):
        f = student_t_cdf(x, v)
        resid = f - uu
        done = np.abs(resid) <= _NEWTON_TOL
        if done.any():
            out[idx[done]] = x[done]
            if done.all():
                break
            keep = ~done
            idx, x, lo, hi = idx[keep], x[keep], lo[keep], hi[keep]
            uu, resid = uu[keep], resid[keep]
        lo = np.where(resid < 0, x, lo)
        hi = np.where(resid > 0, x, hi)
        cand = x - resid / _student_t_pdf(x, v, log_const)
        inside = (cand > lo) & (cand < hi)
        x = np.where(inside, cand, 0.5 * (lo + hi))
    else:
        raise NonConvergenceError(
            f"Student-t quantile iteration did not converge within "
            f"{_NEWTON_MAX_ITER} steps (v={v}, worst residual "
            f"{float(np.max(np.abs(resid))):.3e})"
        )
    return np.where(u >= 0.5, out, -out)


def student_t_quantile(u, v: float):
    """Quantile of the Student-t distribution with real degrees of freedom.

    Exact closed forms are used for v = 1 (Cauchy) and v = 2; other
    degrees of freedom are inverted by a safeguarded Newton iteration on
    the CDF, accurate to 1e-10 in probability space.

    Args:
        u: probability level(s) in the open interval (0, 1).
        v: positive real degrees of freedom.
    """
    if v <= 0:
        raise ValidationError(f"degrees of freedom must be positive, got {v}")
    arr = np.asarray(u, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValidationError("u must lie strictly inside (0, 1)")
    if v == 1.0:
        return np.tan(math.pi * (arr - 0.5))
    if v == 2.0:
        alpha = 4.0 * arr * (1.0 - arr)
        return (2.0 * arr - 1.0) * np.sqrt(2.0 / alpha)
    # the Newton lane tracks unconverged points by flat index
    return _student_t_quantile_newton(arr.ravel(), v).reshape(arr.shape)


def cauchy_cdf(x):
    """Standard Cauchy CDF, 1/2 + arctan(x)/pi."""
    return 0.5 + np.arctan(np.asarray(x, dtype=float)) / math.pi


def frechet_quantile(u, gamma: float):
    """Quantile of the Frechet law with CDF exp(-x^(-1/gamma)) for x > 0."""
    if gamma <= 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    arr = np.asarray(u, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValidationError("u must lie strictly inside (0, 1)")
    return (-np.log(arr)) ** (-gamma)
