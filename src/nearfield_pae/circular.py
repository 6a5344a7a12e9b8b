"""Von Mises distribution algebra, Gaussian-to-von-Mises conversion, and a
generic Laplace (mode + curvature) Gaussian fit.

These are the primitives every message in the estimation loop is built
from: beliefs about direction cosines are von Mises densities on the
scaled angle ``pi * phi``, closed under multiplication and "division"
(extrinsic extraction), while position and pose beliefs are Gaussians
obtained by Laplace approximation of composite log-densities. The
Laplace fits run a damped Newton ascent on analytic Hessians over a
stack of independent problems at once (`newton_fits`); `laplace_fit` is
its one-problem view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KAPPA_MAX = 1e12
# smallest curvature a Newton step uses, relative to the largest
# |eigenvalue|: bounds the condition number of the modified Hessian by
# 1e8, so the step stays accurate to about 1e-8 in double precision
NEWTON_CURVATURE_FLOOR = 1e-8

# asymptotic series I0(k) ~ e^k / sqrt(2 pi k) * sum a_n / k**n
_I0_ASYMPTOTIC = (1.0, 1.0 / 8.0, 9.0 / 128.0, 225.0 / 3072.0, 11025.0 / 98304.0)


def log_i0(kappa):
    """log of the modified Bessel function I0, stable for any kappa >= 0.

    Power series below 50, asymptotic expansion above; the crossover keeps
    both branches accurate to ~1e-11 relative.
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa < 0):
        raise ValueError("kappa must be non-negative")
    out = np.empty_like(kappa)
    small = kappa <= 50.0
    if np.any(small):
        k = kappa[small]
        half_sq = (k / 2.0) ** 2
        term = np.ones_like(k)
        total = np.ones_like(k)
        for n in range(1, 120):
            term = term * half_sq / (n * n)
            total += term
            if np.all(term <= 1e-18 * total):
                break
        out[small] = np.log(total)
    if np.any(~small):
        k = kappa[~small]
        corr = np.zeros_like(k)
        for n, a in enumerate(_I0_ASYMPTOTIC):
            corr += a / k**n
        out[~small] = k - 0.5 * np.log(2.0 * np.pi * k) + np.log(corr)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class VonMises:
    """Circular density with mean direction ``chi`` (wrapped to [-pi, pi))
    and concentration ``kappa`` (clamped to [0, 1e12])."""

    chi: float
    kappa: float

    def __post_init__(self):
        if not np.isfinite(self.chi):
            raise ValueError("mean direction must be finite")
        if not np.isfinite(self.kappa) or self.kappa < 0:
            raise ValueError(f"concentration must be finite and >= 0, got {self.kappa}")
        chi = math.remainder(self.chi, 2.0 * math.pi)
        if chi >= math.pi:  # remainder returns (-pi, pi]; wrap pi down
            chi -= 2.0 * math.pi
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "kappa", min(float(self.kappa), KAPPA_MAX))

    def log_pdf(self, theta):
        return vm_log_pdf(self, theta)

    def is_uniform(self, tol: float = 0.0) -> bool:
        return self.kappa <= tol


def vm_log_pdf(d: VonMises, theta):
    """log density kappa cos(theta - chi) - log(2 pi I0(kappa))."""
    theta = np.asarray(theta, dtype=float)
    val = d.kappa * np.cos(theta - d.chi) - math.log(2.0 * math.pi) - log_i0(d.kappa)
    return val if val.ndim else float(val)


def vm_multiply(a: VonMises, b: VonMises) -> VonMises:
    """Renormalized pointwise product: the resultant of the two
    concentration phasors."""
    z = a.kappa * np.exp(1j * a.chi) + b.kappa * np.exp(1j * b.chi)
    return VonMises(float(np.angle(z)), float(abs(z)))


def vm_extrinsic(post: VonMises, pri: VonMises) -> VonMises:
    """The belief left after removing a prior factor from a posterior:
    phasor subtraction of the concentrations."""
    z = post.kappa * np.exp(1j * post.chi) - pri.kappa * np.exp(1j * pri.chi)
    return VonMises(float(np.angle(z)), float(abs(z)))


@dataclass(frozen=True)
class VmPair:
    """Independent von Mises beliefs over the two scaled direction
    cosines (pi phi_x, pi phi_y)."""

    vx: VonMises
    vy: VonMises

    def as_arrays(self) -> tuple:
        return (
            np.array([self.vx.chi, self.vy.chi]),
            np.array([self.vx.kappa, self.vy.kappa]),
        )


@dataclass
class GaussianBelief:
    """Mean and covariance of a (1-6)-dimensional Gaussian message.

    ``precision``, when given, is the inverse covariance as it was formed
    (for a Laplace fit, the capped -H that ``cov`` inverts); products use
    it instead of inverting ``cov`` again, whose condition number can
    reach ~1e21 at extreme curvature spread.
    """

    mean: np.ndarray
    cov: np.ndarray
    precision: np.ndarray | None = None

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ValueError(f"covariance shape {cov.shape} does not match mean ({n},)")
        asym = np.max(np.abs(cov - cov.T))
        if asym > 1e-10 * max(1.0, np.max(np.abs(cov))):
            raise ValueError(f"covariance is not symmetric (max asymmetry {asym:.3g})")
        self.mean = mean
        self.cov = 0.5 * (cov + cov.T)
        if self.precision is not None:
            prec = np.asarray(self.precision, dtype=float)
            if prec.shape != (n, n):
                raise ValueError(f"precision shape {prec.shape} does not match mean ({n},)")
            self.precision = 0.5 * (prec + prec.T)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def information(self) -> np.ndarray:
        """The stored precision, else the inverse covariance."""
        return self.precision if self.precision is not None else np.linalg.inv(self.cov)


def information_product(mean_a, prec_a, mean_b, prec_b):
    """Product of Gaussians given in information form, stacked over any
    leading axes: precisions and precision-weighted means add. Returns
    (mean, covariance, precision)."""
    lam = prec_a + prec_b
    cov = np.linalg.inv(lam)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    weighted = prec_a @ mean_a[..., None] + prec_b @ mean_b[..., None]
    return (cov @ weighted)[..., 0], cov, lam


def gaussian_product(a: GaussianBelief, b: GaussianBelief) -> GaussianBelief:
    """Information-form combination of two Gaussian beliefs."""
    return GaussianBelief(*information_product(a.mean, a.information, b.mean, b.information))


def gaussian_to_vm(belief: GaussianBelief, subarray_ref: np.ndarray) -> VmPair:
    """Project a 3-D position belief onto von Mises beliefs over the two
    scaled direction cosines seen from a subarray reference point.

    The mean direction is ``pi * phi_l`` at the belief mean; the
    concentration is ``d^2 / (pi^2 (1 - phi_l^2) v^T C v)`` where ``v`` is
    the unit vector perpendicular to the line of sight within the plane
    spanned by the axis ``e_l`` and the line of sight. Near-endfire
    geometry (axis parallel to the line of sight) degenerates to a point
    mass at ``phi = +/-1`` and is clamped.
    """
    if belief.dim != 3:
        raise ValueError("position belief must be 3-dimensional")
    ref = np.asarray(subarray_ref, dtype=float).reshape(3)
    los = ref - belief.mean
    d = np.linalg.norm(los)
    if d < 1e-300:
        raise ValueError("belief mean coincides with the subarray reference")
    u = los / d
    comps = []
    for axis in range(2):
        e = np.zeros(3)
        e[axis] = 1.0
        phi_bar = -float(u[axis])  # cosine of (mean - ref) against the axis
        w = e - (e @ u) * u
        w_norm = np.linalg.norm(w)
        one_minus = 1.0 - phi_bar * phi_bar
        if w_norm < 1e-12 or one_minus < 1e-12:
            comps.append(VonMises(math.copysign(math.pi, phi_bar), KAPPA_MAX))
            continue
        v = w / w_norm
        denom = math.pi**2 * one_minus * float(v @ belief.cov @ v)
        if denom <= 0:
            comps.append(VonMises(math.pi * phi_bar, KAPPA_MAX))
            continue
        comps.append(VonMises(math.pi * phi_bar, min(d * d / denom, KAPPA_MAX)))
    return VmPair(comps[0], comps[1])


@dataclass(frozen=True)
class GaOptions:
    """Controls of the damped Newton ascent behind every Laplace fit.

    Each step is a modified Newton step (`modified_newton_direction`) on
    the analytic Hessian, shortened by ``backtrack`` until the Armijo
    condition with constant ``armijo`` holds (at most ``max_backtracks``
    times). A problem has converged when |gradient| < ``grad_tol`` *
    max(1, |f|); it stops after ``max_polish`` steps.
    """

    backtrack: float = 0.5
    armijo: float = 1e-4
    grad_tol: float = 1e-8
    max_polish: int = 40
    max_backtracks: int = 60


@dataclass
class LaplaceFit:
    """Result of `laplace_fit`: the Gaussian (mean, covariance and the
    precision the covariance inverts) plus convergence flags.

    `newton_fits` returns the same fields stacked along a leading problem
    axis. ``n_polish_steps`` counts accepted Newton steps; there is no
    gradient-ascent phase, so ``n_ga_steps`` is always 0 (it is kept for
    readers of the step counts, such as the benchmark's tracer).
    """

    mean: np.ndarray
    cov: np.ndarray
    precision: np.ndarray
    converged: bool
    regularized: bool
    n_polish_steps: int = 0
    n_ga_steps: int = 0

    @property
    def belief(self) -> GaussianBelief:
        return GaussianBelief(self.mean, self.cov, self.precision)

    def problem(self, i: int) -> "LaplaceFit":
        """The fit of problem ``i`` of a stacked result."""
        return LaplaceFit(
            mean=self.mean[i],
            cov=self.cov[i],
            precision=self.precision[i],
            converged=bool(self.converged[i]),
            regularized=bool(self.regularized[i]),
            n_polish_steps=int(self.n_polish_steps[i]),
        )


def finite_diff_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate scaled steps (a
    test oracle for the analytic gradients)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def finite_diff_hessian(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central second differences of a scalar function (a test oracle for
    the analytic Hessians)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = np.array([step * max(1.0, abs(x[i])) for i in range(n)])
    hess = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        hess[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / h[i] ** 2
        for j in range(i + 1, n):
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[[i, j]] += h[[i, j]]
            xmm[[i, j]] -= h[[i, j]]
            xpm[i] += h[i]
            xpm[j] -= h[j]
            xmp[i] -= h[i]
            xmp[j] += h[j]
            hess[i, j] = hess[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (
                4.0 * h[i] * h[j]
            )
    return hess


def _capped_eigenpairs(hess: np.ndarray, floor: float):
    """Eigenpairs of the symmetrized matrices (..., n, n) with the
    eigenvalues capped at -floor, and whether any was capped."""
    vals, vecs = np.linalg.eigh(0.5 * (hess + np.swapaxes(hess, -1, -2)))
    return np.minimum(vals, -floor), vecs, np.any(vals > -floor, axis=-1)


def _from_eigenpairs(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    out = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def regularize_hessian(hess: np.ndarray, floor: float = 1e-9):
    """Force symmetric matrices (..., n, n) to be negative definite by
    capping their eigenvalues at -floor. Returns (regularized matrix,
    was_modified)."""
    vals, vecs, modified = _capped_eigenpairs(hess, floor)
    return _from_eigenpairs(vals, vecs), modified


def laplace_moments(hess: np.ndarray, floor: float = 1e-9):
    """Laplace covariance -H^{-1} and precision -H of stacked Hessians
    (..., n, n), with each H forced negative definite first by capping its
    eigenvalues at -floor; returns (covariance, precision, was_modified).
    Both come from one eigendecomposition: decomposing a rebuilt matrix
    again would lose a -floor cap next to eigenvalues ~1e18 times larger
    in rounding."""
    vals, vecs, modified = _capped_eigenpairs(hess, floor)
    return _from_eigenpairs(-1.0 / vals, vecs), _from_eigenpairs(-vals, vecs), modified


def modified_newton_direction(hess: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ascent directions B^{-1} g of modified Newton steps for stacked
    Hessians (..., n, n) and gradients (..., n), where B is -hess with
    every eigenvalue raised to NEWTON_CURVATURE_FLOOR times the largest
    |eigenvalue| (Nocedal & Wright, Numerical Optimization, sec. 3.4).
    Solving through the eigendecomposition keeps the step finite however
    ill-conditioned or indefinite the Hessian is; a zero Hessian yields
    the plain gradient."""
    vals, vecs = np.linalg.eigh(-0.5 * (hess + np.swapaxes(hess, -1, -2)))
    scale = np.max(np.abs(vals), axis=-1, keepdims=True)
    vals = np.maximum(vals, NEWTON_CURVATURE_FLOOR * scale)
    vals[(scale == 0.0)[..., 0]] = 1.0
    coords = (np.swapaxes(vecs, -1, -2) @ g[..., None])[..., 0] / vals
    return (vecs @ coords[..., None])[..., 0]


def newton_fits(
    value, derivatives, init: np.ndarray, opts: GaOptions = GaOptions()
) -> LaplaceFit:
    """Laplace fits of B independent log-densities in one stacked solve.

    Every problem ascends from its row of ``init`` (B, n) by modified
    Newton steps on its analytic Hessian, each with its own Armijo
    backtracking; the line searches of all problems share one call of
    ``value`` per trial step. The covariance is the negated inverse of
    the capped Hessian at the last point (`laplace_moments`).

    Parameters
    ----------
    value : callable
        ``value(x, idx)`` maps points (b, n) of the problems ``idx`` (b,)
        to their log densities (b,), up to a constant.
    derivatives : callable
        ``derivatives(x, idx)`` returns the log densities (b,), gradients
        (b, n) and Hessians (b, n, n) at those points.

    Returns a `LaplaceFit` whose fields carry a leading problem axis. A
    problem has converged when its gradient passes the ``grad_tol`` test
    or its accepted step is below 1e-14 of max(1, |x|); it stops without
    converging when no backtracked step is accepted, or after
    ``opts.max_polish`` steps.
    """
    x = np.array(init, dtype=float)
    every = np.arange(x.shape[0])
    f, g, hess = (np.array(a, dtype=float) for a in derivatives(x, every))

    def stationary(f, g):
        # objectives scale with the concentrations feeding them (up to
        # ~1e12), so the stationarity test must scale along
        return np.linalg.norm(g, axis=-1) < opts.grad_tol * np.maximum(1.0, np.abs(f))

    converged = stationary(f, g)
    stalled = np.zeros_like(converged)
    steps = np.zeros(x.shape[0], dtype=int)
    for _ in range(opts.max_polish):
        active = np.flatnonzero(~converged & ~stalled)
        if active.size == 0:
            break
        direction = modified_newton_direction(hess[active], g[active])
        slope = np.sum(g[active] * direction, axis=-1)
        step = np.ones(active.size)
        accepted = np.zeros(active.size, dtype=bool)
        pending = np.arange(active.size)
        for _ in range(opts.max_backtracks):
            trial = x[active[pending]] + step[pending, None] * direction[pending]
            f_new = value(trial, active[pending])
            ok = np.isfinite(f_new) & (
                f_new >= f[active[pending]] + opts.armijo * step[pending] * slope[pending]
            )
            x[active[pending[ok]]] = trial[ok]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            if pending.size == 0:
                break
            step[pending] *= opts.backtrack
        stalled[active[~accepted]] = True
        moved = active[accepted]
        if moved.size == 0:
            continue
        f[moved], g[moved], hess[moved] = derivatives(x[moved], moved)
        steps[moved] += 1
        taken = np.linalg.norm(step[accepted, None] * direction[accepted], axis=-1)
        converged[moved] = stationary(f[moved], g[moved]) | (
            taken < 1e-14 * np.maximum(1.0, np.linalg.norm(x[moved], axis=-1))
        )

    cov, precision, regularized = laplace_moments(hess)
    return LaplaceFit(
        mean=x,
        cov=cov,
        precision=precision,
        converged=converged,
        regularized=regularized,
        n_polish_steps=steps,
        n_ga_steps=np.zeros_like(steps),
    )


def laplace_fit(
    log_density, init: np.ndarray, grad, hess, opts: GaOptions = GaOptions()
) -> LaplaceFit:
    """Gaussian fit to one log-density: `newton_fits` on a single problem.

    Parameters
    ----------
    log_density : callable
        Maps an (n,) point to a scalar log density (up to a constant).
    init : array_like
        Starting point of the ascent.
    grad, hess : callable
        Analytic gradient (n,) and Hessian (n, n) of ``log_density``.
    """
    x0 = np.atleast_1d(np.asarray(init, dtype=float))
    n = x0.size

    def value(x, _):
        return np.array([log_density(x[0])], dtype=float)

    def derivatives(x, _):
        p = x[0]
        return (
            value(x, _),
            np.asarray(grad(p), dtype=float).reshape(1, n),
            np.asarray(hess(p), dtype=float).reshape(1, n, n),
        )

    return newton_fits(value, derivatives, x0[None], opts).problem(0)
