"""Von Mises distribution algebra, Gaussian-to-von-Mises conversion, and a
generic Laplace (mode + curvature) Gaussian fit.

These are the primitives every message in the estimation loop is built
from: beliefs about direction cosines are von Mises densities on the
scaled angle ``pi * phi``, closed under multiplication and "division"
(extrinsic extraction), while position and pose beliefs are Gaussians
obtained by Laplace approximation of composite log-densities. The
Laplace fits run a damped Newton ascent on analytic Hessians over a
stack of independent problems at once (`newton_fits`), the one solver
behind every fit in the package; `laplace_fit` is its one-problem view.
The solver takes no settings and has one stop rule: a problem has
converged when the gain its next Newton step predicts is within the
rounding of its objective, or when its last step was within the
rounding of its point.
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
# the line search halves a rejected step and accepts one that gains at
# least this fraction of the gain its slope predicts (Armijo)
_BACKTRACK = 0.5
_ARMIJO = 1e-4
# a problem has converged once the gain its next step predicts, the
# Newton decrement 1/2 g^T B^-1 g, is at most the spacing of floating
# point numbers at its objective, eps |f|: no comparison of values can
# resolve a smaller gain (Boyd & Vandenberghe, Convex Optimization,
# sec. 9.5.1), and relative to f the test is blind to f's scale. Keep it
# within a few ulps: at 16 eps |f| a bound's pseudotrue fit stopped a
# step short of mcrb's stationarity test
_DECREMENT_TOL = np.finfo(float).eps
_MAX_STEPS = 40
_MAX_BACKTRACKS = 60

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
        chi, kappa = vm_normalize(self.chi, self.kappa)
        object.__setattr__(self, "chi", float(chi))
        object.__setattr__(self, "kappa", float(kappa))


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
    """The belief left after removing a prior factor from a posterior
    (`vm_extrinsic_stack` on one pair)."""
    return VonMises(*vm_extrinsic_stack(post.chi, post.kappa, pri.chi, pri.kappa))


def vm_normalize(chi, kappa):
    """`VonMises`'s normalisation over arrays: means wrapped to [-pi, pi)
    and concentrations clamped to KAPPA_MAX. Raises ValueError where a
    mean is not finite or a concentration is not finite and >= 0, so a
    NaN cannot pass on as a belief."""
    chi = np.asarray(chi, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    if not np.all(np.isfinite(chi)):
        raise ValueError("mean direction must be finite")
    bad = ~(np.isfinite(kappa) & (kappa >= 0))
    if np.any(bad):
        raise ValueError(f"concentration must be finite and >= 0, got {kappa[bad].flat[0]}")
    # fmod and one shift by 2 pi are exact, so this is math.remainder's
    # representative, with pi mapped to -pi
    chi = np.fmod(chi, 2.0 * math.pi)
    chi = np.where(chi >= math.pi, chi - 2.0 * math.pi, chi)
    chi = np.where(chi < -math.pi, chi + 2.0 * math.pi, chi)
    return chi, np.minimum(kappa, KAPPA_MAX)


def vm_extrinsic_stack(post_chi, post_kappa, pri_chi, pri_kappa):
    """Extrinsic beliefs of stacked von Mises posteriors and priors, all
    of one shape: the phasor subtraction
    kappa e^{j chi} = kappa_post e^{j chi_post} - kappa_pri e^{j chi_pri},
    normalised by `vm_normalize`. Returns (chi, kappa); raises ValueError
    on stacks of different shapes."""
    if len({np.shape(a) for a in (post_chi, post_kappa, pri_chi, pri_kappa)}) > 1:
        raise ValueError("posterior and prior stacks must have equal shapes")
    z = post_kappa * np.exp(1j * np.asarray(post_chi))
    z = z - pri_kappa * np.exp(1j * np.asarray(pri_chi))
    return vm_normalize(np.angle(z), np.abs(z))


@dataclass(frozen=True)
class VmPair:
    """Independent von Mises beliefs over the two scaled direction
    cosines (pi phi_x, pi phi_y)."""

    vx: VonMises
    vy: VonMises


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


def gaussian_to_vm(belief: GaussianBelief, subarray_ref: np.ndarray) -> VmPair:
    """Project one 3-D position belief onto von Mises beliefs over the two
    scaled direction cosines seen from a subarray reference point
    (`gaussian_to_vm_stack` on one belief)."""
    chi, kappa = gaussian_to_vm_stack(belief.mean, belief.cov, np.reshape(subarray_ref, 3))
    return VmPair(VonMises(chi[0], kappa[0]), VonMises(chi[1], kappa[1]))


def gaussian_to_vm_stack(means, covs, refs):
    """Project 3-D position beliefs -- means (..., 3), covariances
    (..., 3, 3) -- onto von Mises beliefs (..., 2) over the two scaled
    direction cosines seen from points ``refs`` (broadcast to (..., 3)).

    The mean direction is ``pi * phi_l`` at the belief mean; the
    concentration is ``d^2 / (pi^2 (1 - phi_l^2) v^T C v)`` where ``v`` is
    the unit vector perpendicular to the line of sight within the plane
    spanned by the axis ``e_l`` and the line of sight. Near-endfire
    geometry (axis parallel to the line of sight) degenerates to a point
    mass at ``phi = +/-1``, and a non-positive denominator to a point mass
    at ``phi_l``; `vm_normalize` wraps and clamps the results. Raises
    ValueError when a mean coincides with its reference point or a result
    is not finite.
    """
    means = np.asarray(means, dtype=float)
    if means.shape[-1] != 3:
        raise ValueError("position beliefs must be 3-dimensional")
    los = np.asarray(refs, dtype=float) - means
    d = np.linalg.norm(los, axis=-1)[..., None]
    if np.any(d < 1e-300):
        raise ValueError("belief mean coincides with the subarray reference")
    u = los / d
    phi_bar = -u[..., :2]  # cosines of (mean - ref) against the axes
    w = np.eye(3)[:2] - u[..., :2, None] * u[..., None, :]  # (..., 2, 3)
    w_norm = np.linalg.norm(w, axis=-1)
    one_minus = 1.0 - phi_bar * phi_bar
    endfire = (w_norm < 1e-12) | (one_minus < 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = w / w_norm[..., None]
        denom = math.pi**2 * one_minus * np.einsum("...li,...ij,...lj->...l", v, covs, v)
        kappa = np.where(denom <= 0, KAPPA_MAX, np.minimum(d * d / denom, KAPPA_MAX))
    chi = np.where(endfire, np.copysign(math.pi, phi_bar), math.pi * phi_bar)
    return vm_normalize(chi, np.where(endfire, KAPPA_MAX, kappa))


@dataclass
class LaplaceFit:
    """Result of `laplace_fit`: the Gaussian (mean, covariance and the
    precision the covariance inverts) plus convergence flags.

    `newton_fits` returns the same fields stacked along a leading problem
    axis. ``n_polish_steps`` counts accepted Newton steps.
    """

    mean: np.ndarray
    cov: np.ndarray
    precision: np.ndarray
    converged: bool
    regularized: bool
    n_polish_steps: int = 0

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


def _capped_eigenpairs(hess: np.ndarray, floor: float):
    """Eigenpairs of the symmetrized matrices (..., n, n) with the
    eigenvalues capped at -floor, and whether any was capped."""
    vals, vecs = np.linalg.eigh(0.5 * (hess + np.swapaxes(hess, -1, -2)))
    return np.minimum(vals, -floor), vecs, np.any(vals > -floor, axis=-1)


def _from_eigenpairs(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    out = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


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


def newton_fits(value, derivatives, init: np.ndarray) -> LaplaceFit:
    """Laplace fits of B independent log-densities in one stacked solve.

    Every problem ascends from its row of ``init`` (B, n) by modified
    Newton steps on its analytic Hessian (`modified_newton_direction`),
    each with its own Armijo backtracking, halving the step at most
    ``_MAX_BACKTRACKS`` times; the line searches of all problems share one
    call of ``value`` per trial step. The covariance is the negated
    inverse of the capped Hessian at the last point (`laplace_moments`).

    Parameters
    ----------
    value : callable
        ``value(x, idx)`` maps points (b, n) of the problems ``idx`` (b,)
        to their log densities (b,), up to a constant.
    derivatives : callable
        ``derivatives(x, idx)`` returns the log densities (b,), gradients
        (b, n) and Hessians (b, n, n) at those points.

    Returns a `LaplaceFit` whose fields carry a leading problem axis. A
    problem has converged when the gain its next step predicts,
    1/2 g^T B^-1 g with B the modified negated Hessian, is at most
    eps |f| (the rounding of its log density f), or when its accepted
    step is below 1e-14 of max(1, |x|). Scaling f by a positive constant
    changes neither test. A problem stops without converging when no
    backtracked step is accepted, or after ``_MAX_STEPS`` steps.
    """
    x = np.array(init, dtype=float)
    every = np.arange(x.shape[0])
    f, g, hess = (np.array(a, dtype=float) for a in derivatives(x, every))
    # each problem's direction and slope g^T B^-1 g at its current point:
    # its stop test and its next line search share them
    direction = modified_newton_direction(hess, g)
    slope = np.sum(g * direction, axis=-1)
    converged = 0.5 * slope <= _DECREMENT_TOL * np.abs(f)
    stalled = np.zeros_like(converged)
    steps = np.zeros(x.shape[0], dtype=int)
    for _ in range(_MAX_STEPS):
        active = np.flatnonzero(~converged & ~stalled)
        if active.size == 0:
            break
        step = np.ones(active.size)
        accepted = np.zeros(active.size, dtype=bool)
        pending = np.arange(active.size)
        for _ in range(_MAX_BACKTRACKS):
            rows = active[pending]
            trial = x[rows] + step[pending, None] * direction[rows]
            f_new = value(trial, rows)
            ok = np.isfinite(f_new) & (f_new >= f[rows] + _ARMIJO * step[pending] * slope[rows])
            x[rows[ok]] = trial[ok]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            if pending.size == 0:
                break
            step[pending] *= _BACKTRACK
        stalled[active[~accepted]] = True
        moved = active[accepted]
        if moved.size == 0:
            continue
        taken = np.linalg.norm(step[accepted, None] * direction[moved], axis=-1)
        f[moved], g[moved], hess[moved] = derivatives(x[moved], moved)
        direction[moved] = modified_newton_direction(hess[moved], g[moved])
        slope[moved] = np.sum(g[moved] * direction[moved], axis=-1)
        steps[moved] += 1
        converged[moved] = (0.5 * slope[moved] <= _DECREMENT_TOL * np.abs(f[moved])) | (
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
    )


def laplace_fit(log_density, init: np.ndarray, grad, hess) -> LaplaceFit:
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

    return newton_fits(value, derivatives, x0[None]).problem(0)
