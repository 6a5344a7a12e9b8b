"""Von Mises distribution algebra, Gaussian-to-von-Mises conversion, and a
generic Laplace (mode + curvature) Gaussian fit.

These are the primitives every message in the estimation loop is built
from: beliefs about direction cosines are von Mises densities on the
scaled angle ``pi * phi``, closed under multiplication and "division"
(extrinsic extraction), while position and pose beliefs are Gaussians
obtained by Laplace approximation of composite log-densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KAPPA_MAX = 1e12
# smallest curvature a Newton polish step uses, relative to the largest
# |eigenvalue|: about sqrt(machine epsilon), the relative accuracy of a
# finite-difference Hessian
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
    """Mean and covariance of a (1-6)-dimensional Gaussian message."""

    mean: np.ndarray
    cov: np.ndarray

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

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def gaussian_product(a: GaussianBelief, b: GaussianBelief) -> GaussianBelief:
    """Information-form combination of two Gaussian beliefs (covariance
    inverses and weighted means add)."""
    ia = np.linalg.inv(a.cov)
    ib = np.linalg.inv(b.cov)
    lam = ia + ib
    cov = np.linalg.inv(lam)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (ia @ a.mean + ib @ b.mean)
    return GaussianBelief(mean, cov)


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
    """Ascent controls: plain gradient steps with backtracking line search,
    then curvature-based polish using the Hessian already needed for the
    Laplace covariance."""

    step0: float = 1.0
    backtrack: float = 0.5
    armijo: float = 1e-4
    grad_tol: float = 1e-8
    max_iter: int = 200
    fd_step: float = 1e-6
    newton_polish: bool = True
    max_polish: int = 40
    max_backtracks: int = 60


@dataclass
class LaplaceFit:
    """Result of `laplace_fit`: the Gaussian plus convergence flags."""

    mean: np.ndarray
    cov: np.ndarray
    converged: bool
    regularized: bool
    n_ga_steps: int
    n_polish_steps: int = 0

    @property
    def belief(self) -> GaussianBelief:
        return GaussianBelief(self.mean, self.cov)


def finite_diff_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate scaled steps."""
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
    """Central second differences of a scalar function."""
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


def _hessian_from_gradient(grad, x: np.ndarray, step: float) -> np.ndarray:
    n = x.size
    hess = np.zeros((n, n))
    for i in range(n):
        h = step * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        hess[:, i] = (grad(xp) - grad(xm)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def _capped_eigenpairs(hess: np.ndarray, floor: float):
    """Eigenpairs of the symmetrized matrix with the eigenvalues capped at
    -floor, and whether any was capped."""
    vals, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
    return np.minimum(vals, -floor), vecs, bool(np.any(vals > -floor))


def regularize_hessian(hess: np.ndarray, floor: float = 1e-9):
    """Force a symmetric matrix to be negative definite by capping its
    eigenvalues at -floor. Returns (regularized matrix, was_modified)."""
    vals, vecs, modified = _capped_eigenpairs(hess, floor)
    return (vecs * vals) @ vecs.T, modified


def modified_newton_direction(hess: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ascent direction B^{-1} g of a modified Newton step, where B is
    -hess with every eigenvalue raised to NEWTON_CURVATURE_FLOOR times the
    largest |eigenvalue| (Nocedal & Wright, Numerical Optimization,
    sec. 3.4). Solving through the eigendecomposition keeps the step
    finite however ill-conditioned or indefinite the Hessian is; a zero
    Hessian yields the plain gradient."""
    vals, vecs = np.linalg.eigh(-0.5 * (hess + hess.T))
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return g
    vals = np.maximum(vals, NEWTON_CURVATURE_FLOOR * scale)
    return vecs @ ((vecs.T @ g) / vals)


def covariance_from_hessian(hess: np.ndarray, floor: float = 1e-9):
    """Laplace covariance -H^{-1} with the Hessian forced negative
    definite first; always symmetric PSD. The capped eigenpairs are
    inverted directly: decomposing the rebuilt matrix again would lose a
    -floor cap next to eigenvalues ~1e18 times larger in rounding."""
    vals, vecs, modified = _capped_eigenpairs(hess, floor)
    cov = (vecs * (-1.0 / vals)) @ vecs.T
    return 0.5 * (cov + cov.T), modified


def laplace_fit(
    log_density,
    init: np.ndarray,
    grad=None,
    hess=None,
    opts: GaOptions = GaOptions(),
) -> LaplaceFit:
    """Gaussian fit to a log-density: mean at a local maximum reached by
    gradient ascent (optionally polished with curvature steps), covariance
    from the negated inverse Hessian at the mode.

    Parameters
    ----------
    log_density : callable
        Maps an (n,) point to a scalar log density (up to a constant).
    init : array_like
        Starting point for the ascent.
    grad, hess : callable, optional
        Analytic gradient / Hessian; central differences otherwise.
    """
    x = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    g_fn = grad if grad is not None else (
        lambda p: finite_diff_gradient(log_density, p, opts.fd_step)
    )
    f_val = log_density(x)

    def _tol(f):
        # objectives scale with the concentrations feeding them (up to
        # ~1e12), so the stationarity test must scale along
        return opts.grad_tol * max(1.0, abs(f))

    g = g_fn(x)
    n_ga = 0
    converged = np.linalg.norm(g) < _tol(f_val)
    step = opts.step0
    while not converged and n_ga < opts.max_iter:
        direction = g
        gnorm_sq = float(g @ g)
        step = opts.step0
        accepted = False
        for _ in range(opts.max_backtracks):
            x_new = x + step * direction
            f_new = log_density(x_new)
            if np.isfinite(f_new) and f_new >= f_val + opts.armijo * step * gnorm_sq:
                accepted = True
                break
            step *= opts.backtrack
        if not accepted:
            break
        x, f_val = x_new, f_new
        g = g_fn(x)
        n_ga += 1
        if np.linalg.norm(g) < _tol(f_val):
            converged = True

    def hess_at(p):
        if hess is not None:
            return np.atleast_2d(np.asarray(hess(p), dtype=float))
        if grad is not None:
            return _hessian_from_gradient(g_fn, p, opts.fd_step)
        return finite_diff_hessian(log_density, p, 10.0 * opts.fd_step)

    n_polish = 0
    if opts.newton_polish:
        while not converged and n_polish < opts.max_polish:
            direction = modified_newton_direction(hess_at(x), g)
            slope = float(g @ direction)
            step = 1.0
            accepted = False
            for _ in range(opts.max_backtracks):
                x_new = x + step * direction
                f_new = log_density(x_new)
                if np.isfinite(f_new) and f_new >= f_val + opts.armijo * step * slope:
                    accepted = True
                    break
                step *= opts.backtrack
            if not accepted:
                break
            x, f_val = x_new, f_new
            g = g_fn(x)
            n_polish += 1
            if np.linalg.norm(g) < _tol(f_val) or np.linalg.norm(
                step * direction
            ) < 1e-14 * max(1.0, np.linalg.norm(x)):
                converged = True

    cov, regularized = covariance_from_hessian(hess_at(x))
    return LaplaceFit(
        mean=x,
        cov=cov,
        converged=bool(converged),
        regularized=regularized,
        n_ga_steps=n_ga,
        n_polish_steps=n_polish,
    )
