"""Multi-source 2-D direction-cosine estimation with von Mises priors,
solved for a whole stack of same-shaped snapshots at once.

Each snapshot y follows a line-spectral model: a sum of K planar phase
ramps (one per source, the columns of A(phi)) in the two direction
cosines, with complex amplitudes under zero-mean Gaussian priors of
variances v. Estimation maximizes the joint MAP objective with the
amplitudes eliminated in closed form (variable projection: Golub &
Pereyra, Inverse Problems 2003; Viberg, Ottersten & Kailath, IEEE TSP
1991), up to a constant::

    F(phi) = b^H G^-1 b / sigma_w^2 + log prior(phi),
    b = A^H y,  G = A^H A + sigma_w^2 diag(1 / v),

whose maximizing amplitudes are the ridge gains G^-1 b. With one source F
is the profiled objective v' / sigma_w^4 |<steer(phi), y>|^2 + log
prior(phi), v' the amplitude's posterior variance. Posterior
concentrations come from the negated curvature of each source's profiled
term at the maximizer, the other sources held at their ridge gains. A flat
prior (concentration 0, infinite amplitude variance) reduces F to the
energy of y's least-squares projection onto the K steering vectors (the
periodogram at one source), which is how the far-field baseline uses the
same routine (VALSE treats both cases in one routine: Badiu, Hansen &
Fleury, IEEE TSP 2017).

`estimate_aoa_posteriors` solves a stack of snapshots at once: sliced
periodogram starts and a 2-D ascent for one source after another, one
`circular.newton_fits` solve per source position, then one joint
`newton_fits` solve of every snapshot's 2K cosines on the exact gradient
and Hessian of F (`_joint_terms`). Its inputs and outputs are arrays:
stacked samples (B, nx, ny), noise powers (B,), von Mises prior means and
concentrations (B, K, 2) and amplitude prior variances (B, K) in; an
`AoaPosteriors` of arrays out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import subarray_steering
from .circular import newton_fits, vm_normalize

# periodogram grid points per slice of the stack (one snapshot at least):
# one fft2 over the 80 padded grids of a pass adds about 4 MB of peak
# memory; 2**12 points take 64 kB, 1.6 ms per 80-snapshot start (2-core x86)
_GRID_SLICE_POINTS = 2**12
# periodogram grid points per array element and axis: bins 1 / (2 nx)
# apart, so a start lies inside the main lobe of any single source
_PAD_FACTOR = 4


@dataclass(frozen=True)
class AoaPosteriors:
    """Posteriors of the K sources of B snapshots, in prior order: von
    Mises means ``chi`` and concentrations ``kappa`` (B, K, 2) over the
    scaled cosines (`circular.vm_normalize`d), amplitude means (complex)
    and variances (B, K), the axes whose curvature fell back to the prior
    (B, K, 2), and with ``diagnostics`` one objective trace per snapshot."""

    chi: np.ndarray
    kappa: np.ndarray
    coeff_mean: np.ndarray
    coeff_var: np.ndarray
    curvature_fallback: np.ndarray
    traces: list | None = None

    @property
    def cosines(self) -> np.ndarray:
        """Point estimates of (phi_x, phi_y), (B, K, 2), from the means."""
        return self.chi / math.pi


def _conj_ramps(phi: np.ndarray, nx: int, ny: int, order: int):
    """conj(steer(phi)) as one phasor ramp per axis, exp(-j pi phi i) for
    i = 1..n, times (-j pi i)^p for p = 0..``order``: (..., order + 1, nx)
    and (..., order + 1, ny) for cosines phi (..., 2). Row p of the two
    factors gives the conjugated p-th derivatives of steer along each axis."""
    # running products of one phasor per axis: a third of the time of an
    # exp per element on 80 snapshots
    step = np.exp(-1j * np.pi * phi)
    cx = step[..., :1].repeat(nx, axis=-1).cumprod(axis=-1)
    cy = step[..., 1:].repeat(ny, axis=-1).cumprod(axis=-1)
    if order == 0:
        return cx[..., None, :], cy[..., None, :]
    powers = np.arange(order + 1)[:, None]
    xs = cx[..., None, :] * (-1j * np.pi * np.arange(1, nx + 1)) ** powers
    ys = cy[..., None, :] * (-1j * np.pi * np.arange(1, ny + 1)) ** powers
    return xs, ys


def _projections(resid: np.ndarray, phi: np.ndarray, order: int = 2):
    """g = <steer(phi), resid> = sum conj(steer) * resid of stacked
    residuals (B, nx, ny) at cosines phi (B, 2); with ``order`` 2 also its
    gradient (B, 2) and Hessian (B, 2, 2) in phi."""
    xs, ys = _conj_ramps(phi, *resid.shape[1:], order)
    # moments[b, p, q] = d^(p+q) g / dphi_x^p dphi_y^q
    moments = xs @ resid @ np.swapaxes(ys, 1, 2)
    if order == 0:
        return moments[:, 0, 0]
    dg = moments[:, (1, 0), (0, 1)]
    ddg = moments[:, ((2, 1), (1, 0)), ((0, 1), (1, 2))]
    return moments[:, 0, 0], dg, ddg


def _profiled_terms(resid, phi, chi, kappa, weight, order: int = 2):
    """The profiled objective F of stacked problems (B,) -- residuals
    (B, nx, ny), cosines phi (B, 2), prior means chi and concentrations
    kappa (B, 2) and data weights v / sigma_w^4 (B,) -- with, at ``order``
    2, its gradient (B, 2) and Hessian (B, 2, 2) in phi."""
    ang = np.pi * phi - chi
    prior = np.sum(kappa * np.cos(ang), axis=-1)
    if order == 0:
        g = _projections(resid, phi, order=0)
        return weight * (g.real**2 + g.imag**2) + prior
    g, dg, ddg = _projections(resid, phi)
    f = weight * (g.real**2 + g.imag**2) + prior
    w2 = 2.0 * weight[:, None]
    grad = w2 * np.real(np.conj(g)[:, None] * dg) - np.pi * kappa * np.sin(ang)
    hess = w2[..., None] * np.real(
        np.conj(dg)[:, :, None] * dg[:, None, :] + np.conj(g)[:, None, None] * ddg
    )
    hess[:, (0, 1), (0, 1)] -= np.pi**2 * kappa * np.cos(ang)
    return f, grad, hess


def _gram_system(y: np.ndarray, phi: np.ndarray, ridge: np.ndarray, order: int):
    """The projections and Gram terms of K steering vectors a_l = steer(phi_l)
    at cosines phi (b, K, 2) on snapshots y (b, nx, ny), with up to
    ``order`` derivatives per axis:
    ``moments[:, l, p, q]`` = (d^p_x d^q_y a_l)^H y, (b, K, order + 1, order + 1);
    ``gram[:, l, m, p, q]`` = (d^p_x d^q_y a_l)^H a_m, (b, K, K, order + 1, order + 1),
    each a product of two 1-D sums, one per axis; and
    G = A^H A + diag(ridge) (b, K, K) for ridges (b, K)."""
    xs, ys = _conj_ramps(phi, *y.shape[1:], order)
    b_count, k_count = phi.shape[:2]
    # rows (l, p) of the x factors against y and the conjugated x ramps at once
    xs_rows = xs.reshape(b_count, -1, xs.shape[-1])
    both = xs_rows @ np.concatenate([y, np.conj(np.swapaxes(xs[:, :, 0], 1, 2))], axis=2)
    ny = y.shape[2]
    t = both[..., :ny].reshape(ys.shape)
    moments = np.einsum("blpj,blqj->blpq", t, ys)
    gx = both[..., ny:].reshape(b_count, k_count, order + 1, k_count)
    gy = ys.reshape(b_count, -1, ny) @ np.conj(np.swapaxes(ys[:, :, 0], 1, 2))
    gy = gy.reshape(b_count, k_count, order + 1, k_count)
    gram = np.moveaxis(gx, 3, 2)[..., None] * np.moveaxis(gy, 3, 2)[..., None, :]
    system = gram[..., 0, 0].copy()
    system[:, np.arange(k_count), np.arange(k_count)] += ridge
    return moments, gram, system


def _joint_terms(y, phi, chi, kappa, ridge, sigw2, order: int = 2):
    """The joint objective F of stacked K-source problems (b,) -- snapshots
    y (b, nx, ny), cosines phi (b, K, 2), prior means chi and
    concentrations kappa (b, K, 2), ridges sigma_w^2 / v (b, K) and noise
    powers sigw2 (b,) -- with, at ``order`` 2, its exact gradient (b, 2K)
    and Hessian (b, 2K, 2K) in the cosines, source-major.

    With gains c = G^-1 b and residual r = y - A c, dF/dphi_lp is
    2 Re(conj(c_l) (d_p a_l)^H r) / sigw2 less the prior's slope, and the
    data part of the Hessian is 2 Re(W^H G^-1 W + conj(c_l) c_m
    (d_p d_q a_l)^H a_m + [l = m] conj(c_l) (d_p d_q a_l)^H r) / sigw2,
    where column (m, q) of W is e_m (d_q a_m)^H r - A^H d_q a_m c_m, G times
    the gains' derivative in phi_mq."""
    moments, gram, system = _gram_system(y, phi, ridge, order)
    proj = moments[:, :, 0, 0]
    ang = np.pi * phi - chi
    prior = np.sum(kappa * np.cos(ang), axis=(1, 2))
    if order == 0:
        gains = np.linalg.solve(system, proj[..., None])[..., 0]
        return np.sum(np.conj(proj) * gains, axis=1).real / sigw2 + prior
    b_count, k_count = proj.shape
    each = np.arange(k_count)
    inv = np.linalg.inv(system)
    gains = (inv @ proj[..., None])[..., 0]
    f = np.sum(np.conj(proj) * gains, axis=1).real / sigw2 + prior
    # moments of the residual r = y - A c
    resid = moments - np.einsum("blmpq,bm->blpq", gram, gains)
    dr = resid[:, :, (1, 0), (0, 1)]
    scale = 2.0 / sigw2
    grad = scale[:, None, None] * np.real(np.conj(gains)[..., None] * dr)
    grad -= np.pi * kappa * np.sin(ang)
    # w[:, k, m, q] = (e_m (d_q a_m)^H r - A^H d_q a_m c_m)_k, with
    # a_k^H d_q a_m = conj((d_q a_m)^H a_k)
    w = np.conj(gram[:, :, :, (1, 0), (0, 1)]).transpose(0, 2, 1, 3) * -gains[:, None, :, None]
    w[:, each, each] += dr
    w = w.reshape(b_count, k_count, 2 * k_count)
    # [:, l, m, p, q]: conj(c_l) (d_p d_q a_l)^H (a_m c_m + [l = m] r)
    second = gram[..., ((2, 1), (1, 0)), ((0, 1), (1, 2))] * gains[:, None, :, None, None]
    second[:, each, each] += resid[:, :, ((2, 1), (1, 0)), ((0, 1), (1, 2))]
    second *= np.conj(gains)[:, :, None, None, None]
    data = np.conj(np.swapaxes(w, 1, 2)) @ (inv @ w)
    data += second.transpose(0, 1, 3, 2, 4).reshape(data.shape)
    hess = scale[:, None, None] * data.real
    diag = np.arange(2 * k_count)
    hess[:, diag, diag] -= (np.pi**2 * kappa * np.cos(ang)).reshape(b_count, -1)
    return f, grad.reshape(b_count, -1), hess


def _periodogram_starts(resid, chi, kappa, weight) -> np.ndarray:
    """Prior-weighted zero-padded periodogram peaks (B, 2) of stacked
    residuals (B, nx, ny) over the (_PAD_FACTOR nx, _PAD_FACTOR ny) cosine
    grid, built as DFT-matrix products slice by slice (_GRID_SLICE_POINTS)."""
    b_count, nx, ny = resid.shape
    gx, gy = _PAD_FACTOR * nx, _PAD_FACTOR * ny
    phi_x = -1.0 + 2.0 * np.arange(gx) / gx
    phi_y = -1.0 + 2.0 * np.arange(gy) / gy
    dft_x = np.exp(-1j * np.pi * np.outer(phi_x, np.arange(1, nx + 1)))
    dft_y = np.exp(-1j * np.pi * np.outer(np.arange(1, ny + 1), phi_y))
    prior_x = kappa[:, :1] * np.cos(np.pi * phi_x - chi[:, :1])
    prior_y = kappa[:, 1:] * np.cos(np.pi * phi_y - chi[:, 1:])
    per_slice = max(1, _GRID_SLICE_POINTS // (gx * gy))
    peaks = np.empty(b_count, dtype=int)
    for lo in range(0, b_count, per_slice):
        sl = slice(lo, lo + per_slice)
        grid = dft_x @ resid[sl] @ dft_y
        p = np.square(grid.real)
        p += np.square(grid.imag)
        p *= weight[sl, None, None]
        p += prior_x[sl, :, None]
        p += prior_y[sl, None, :]
        peaks[sl] = np.argmax(p.reshape(p.shape[0], -1), axis=1)
    ix, iy = np.divmod(peaks, gy)
    return np.stack([phi_x[ix], phi_y[iy]], axis=-1)


def _checked_inputs(samples, noise_power, prior_chi, prior_kappa, coeff_prior_var):
    """The routine's inputs as arrays, or ValueError on a bad one."""
    y = np.asarray(samples, dtype=np.complex128)
    if y.ndim != 3 or y.shape[0] == 0:
        raise ValueError(f"need at least one snapshot, stacked as (B, nx, ny), got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("snapshot samples must be finite")
    sigw2, chi, kappa, prior_var = (
        np.asarray(a, dtype=float) for a in (noise_power, prior_chi, prior_kappa, coeff_prior_var)
    )
    b_count = y.shape[0]
    if sigw2.shape != (b_count,) or chi.ndim != 3 or chi.shape[::2] != (b_count, 2):
        raise ValueError(
            f"expected {b_count} noise powers and prior lists (means (B, K, 2)), "
            f"got shapes {sigw2.shape} and {chi.shape}"
        )
    if kappa.shape != chi.shape or prior_var.shape != chi.shape[:2] or chi.shape[1] == 0:
        raise ValueError(
            f"expected priors of at least one source: concentrations {chi.shape} and "
            f"amplitude variances {chi.shape[:2]}, got {kappa.shape} and {prior_var.shape}"
        )
    if not np.all(np.isfinite(sigw2) & (sigw2 > 0)):
        raise ValueError("noise power must be finite and positive")
    if not (np.all(np.isfinite(chi)) and np.all(np.isfinite(kappa) & (kappa >= 0))):
        raise ValueError("prior means must be finite and concentrations finite and >= 0")
    if not np.all(prior_var > 0):
        raise ValueError("amplitude prior variance must be > 0 (inf is a flat prior)")
    return y, sigw2[:, None], chi, kappa, prior_var


def estimate_aoa_posteriors(
    samples,
    noise_power,
    prior_chi,
    prior_kappa,
    coeff_prior_var,
    diagnostics: bool = False,
) -> AoaPosteriors:
    """Joint posteriors of the K sources of every snapshot in a stack.

    ``samples`` (B, nx, ny) are the snapshots and ``noise_power`` (B,)
    their noise levels; source k of snapshot b has the von Mises prior
    ``prior_chi[b, k]``, ``prior_kappa[b, k]`` (B, K, 2) over the scaled
    cosines and the amplitude prior variance ``coeff_prior_var[b, k]``
    (B, K), where an infinite variance is a flat amplitude prior. Each
    snapshot processes its sources in the order of their priors' values
    (most concentrated first, ties by mean), so permuting its priors
    permutes its outputs alike. Sources start one after another at the
    peak of the prior-weighted periodogram of the running residual (sliced
    over the stack, `_GRID_SLICE_POINTS`) and ascend their profiled terms
    on it; one stacked Newton solve of the joint objective F over every
    snapshot's 2K cosines, in processing order, then refines them
    together. With one source F is the profiled term the first ascent
    climbed, so only a snapshot whose first ascent stopped unconverged
    ascends again.

    Returns an `AoaPosteriors`; with ``diagnostics`` its ``traces`` hold
    one non-decreasing trace of F per snapshot: its value after the first
    ascents and at every accepted joint step. Raises ValueError on
    non-finite samples, a noise power that is not finite and positive, a
    non-finite prior mean, a negative or non-finite concentration, an
    amplitude variance that is not positive (NaN included), or inputs of
    mismatched shapes.
    """
    y, sigw2, chi, kappa, prior_var = _checked_inputs(
        samples, noise_power, prior_chi, prior_kappa, coeff_prior_var
    )
    b_count, nx, ny = y.shape
    k_count = chi.shape[1]
    post_var = 1.0 / (nx * ny / sigw2 + 1.0 / prior_var)
    weights = post_var / sigw2**2
    every = np.arange(b_count)
    # (B, K): the source at each processing position (lexsort is stable)
    order = np.lexsort((chi[..., 1], chi[..., 0], -np.sum(kappa, axis=-1)), axis=-1)
    phis = np.zeros((b_count, k_count, 2))

    def ascend(resid, rows, ks, start):
        args = (chi[rows, ks], kappa[rows, ks], weights[rows, ks])

        def value(x, idx):
            return _profiled_terms(resid[idx], x, *(a[idx] for a in args), order=0)

        def derivatives(x, idx):
            return _profiled_terms(resid[idx], x, *(a[idx] for a in args))

        return newton_fits(value, derivatives, start)

    def coeff_update(resid, rows, ks):
        g = _projections(resid, phis[rows, ks], order=0)
        return post_var[rows, ks] / sigw2[rows, 0] * g

    resid = y.copy()
    for j in range(k_count):
        ks = order[:, j]
        start = _periodogram_starts(resid, chi[every, ks], kappa[every, ks], weights[every, ks])
        fits = ascend(resid, every, ks, start)
        phis[every, ks] = fits.mean
        gain = coeff_update(resid, every, ks)
        resid = resid - gain[:, None, None] * subarray_steering(nx, ny, *fits.mean.T)

    # the joint solve over (B, K, 2) cosines in processing order
    in_order = (every[:, None], order)
    if k_count == 1:
        kernel, shape = _profiled_terms, (-1, 2)
        args = (chi[:, 0], kappa[:, 0], weights[:, 0])
    else:
        kernel, shape = _joint_terms, (-1, k_count, 2)
        ridge = sigw2 / prior_var
        # plus a floor at the rounding of G's nx- and ny-term sums, relative
        # to its trace: coincident cosines under a flat amplitude prior
        # make A^H A singular
        gram_trace = k_count * nx * ny + np.sum(ridge, axis=1, keepdims=True)
        ridge += (nx + ny) * np.finfo(float).eps * gram_trace
        args = (chi[in_order], kappa[in_order], ridge[in_order], sigw2[:, 0])

    def terms(x, snaps, deriv):
        return kernel(y[snaps], x.reshape(shape), *(a[snaps] for a in args), order=deriv)

    rows = every if k_count > 1 else every[~fits.converged]
    start = phis[in_order].reshape(b_count, -1)
    traces = [[] for _ in every] if diagnostics else None

    def derivatives(x, idx):
        out = terms(x, rows[idx], 2)
        if diagnostics:  # the solver evaluates these at the start and each accepted point
            for b, value in zip(rows[idx], out[0]):
                traces[b].append(value)
        return out

    if rows.size:
        fit = newton_fits(lambda x, idx: terms(x, rows[idx], 0), derivatives, start[rows])
        phis[rows[:, None], order[rows]] = fit.mean.reshape(rows.size, k_count, 2)
    if diagnostics and k_count == 1:  # a converged first ascent's one value
        idle = np.setdiff1d(every, rows)
        for b, value in zip(idle, terms(start[idle], idle, 0)):
            traces[b].append(value)
    # the curvature of each source's profiled term on y less the other
    # sources at their gains, and its amplitude's posterior mean
    if k_count == 1:
        _, _, hess = _profiled_terms(y, phis[:, 0], chi[:, 0], kappa[:, 0], weights[:, 0])
        curv = np.diagonal(hess, axis1=1, axis2=2)[:, None]
        coeff_mean = coeff_update(y, every, order[:, 0])[:, None]
    else:
        # at the joint gains; that residual's moments are the joint
        # residual's plus the source's own
        moments, gram, system = _gram_system(y, phis, ridge, 2)
        gains = np.linalg.solve(system, moments[:, :, 0, :1])[..., 0]
        each = np.arange(k_count)
        loo = moments - np.einsum("blmpq,bm->blpq", gram, gains)
        loo += gram[:, each, each] * gains[..., None, None]
        g, dg, ddg = loo[..., 0, 0], loo[..., (1, 0), (0, 1)], loo[..., (2, 0), (0, 2)]
        curv = 2.0 * weights[..., None] * np.real(np.conj(dg) * dg + np.conj(g)[..., None] * ddg)
        curv -= np.pi**2 * kappa * np.cos(np.pi * phis - chi)
        coeff_mean = post_var / sigw2 * g
    fallback = curv >= 0
    kappa_post = np.where(fallback, kappa, -curv / np.pi**2)
    # cosines wrapped to [-1, 1)
    chi_post, kappa_post = vm_normalize(np.pi * (np.mod(phis + 1.0, 2.0) - 1.0), kappa_post)
    return AoaPosteriors(
        chi=chi_post,
        kappa=kappa_post,
        coeff_mean=coeff_mean,
        coeff_var=post_var,
        curvature_fallback=fallback,
        traces=[np.array(trace) for trace in traces] if diagnostics else None,
    )


def match_components(reference: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Permutation aligning candidate angle pairs to reference pairs by
    minimal summed circular distance (optimal assignment).

    Both inputs are (K, 2) arrays of angles; returns ``perm`` such that
    ``candidates[perm[i]]`` corresponds to ``reference[i]``.
    """
    from scipy.optimize import linear_sum_assignment

    ref = np.asarray(reference, dtype=float)
    cand = np.asarray(candidates, dtype=float)
    if ref.shape != cand.shape:
        raise ValueError("reference and candidate shapes differ")
    diff = ref[:, None, :] - cand[None, :, :]
    diff = np.abs(np.mod(diff + np.pi, 2.0 * np.pi) - np.pi)
    cost = diff.sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(ref.shape[0], dtype=int)
    perm[rows] = cols
    return perm
