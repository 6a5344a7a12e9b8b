"""Multi-source 2-D direction-cosine estimation with von Mises priors,
solved for a whole stack of same-shaped snapshots at once.

Each snapshot follows a line-spectral model: a sum of K planar phase
ramps (one per source) in the two direction cosines, with unknown complex
amplitudes. Estimation is variational coordinate ascent with the
amplitude marginalized under its Gaussian prior: for fixed other sources,
the profiled objective in one source's cosines is::

    F(phi) = v / sigma_w^4 * |<steer(phi), residual>|^2 + log prior(phi)

with ``v`` the amplitude's posterior variance. Amplitude updates and
ascent steps on F both increase the joint MAP objective, so sweeps are
monotone. Posterior concentrations come from the negated curvature of F
at its maximizers. A flat prior (concentration 0, infinite amplitude
variance) reduces F to the plain periodogram, which is how the far-field
baseline uses the same routine (VALSE treats both cases in one routine:
Badiu, Hansen & Fleury, IEEE TSP 2017).

`estimate_aoa_posteriors` solves a stack of snapshots at once: sliced
periodogram starts, one `circular.newton_fits` solve per source position
for the 2-D ascents, and sweeps under a per-snapshot convergence mask.
Its inputs and outputs are arrays: stacked samples (B, nx, ny), noise
powers (B,), von Mises prior means and concentrations (B, K, 2) and
amplitude prior variances (B, K) in; an `AoaPosteriors` of arrays out.
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
# a snapshot leaves the sweeps once no cosine of it moves by this much
_MOVE_TOL = 1e-6


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


@dataclass(frozen=True)
class AoaOptions:
    """The coordinate-ascent sweep limit. Raises ValueError on a
    ``max_sweeps`` that is not an integer >= 0."""

    max_sweeps: int = 20

    def __post_init__(self):
        if not (isinstance(self.max_sweeps, (int, np.integer)) and self.max_sweeps >= 0):
            raise ValueError(f"max_sweeps must be an integer >= 0, got {self.max_sweeps}")


def _projections(resid: np.ndarray, phi: np.ndarray, order: int = 2):
    """g = <steer(phi), resid> = sum conj(steer) * resid of stacked
    residuals (B, nx, ny) at cosines phi (B, 2); with ``order`` 2 also its
    gradient (B, 2) and Hessian (B, 2, 2) in phi."""
    _, nx, ny = resid.shape
    # conj(steer) factors exp(-j pi phi i) as running products of one
    # phasor per axis: a third of the time of an exp per element on 80 snapshots
    step = np.exp(-1j * np.pi * phi)
    cx = step[:, :1].repeat(nx, axis=1).cumprod(axis=1)
    cy = step[:, 1:].repeat(ny, axis=1).cumprod(axis=1)
    if order == 0:
        return (cx[:, None, :] @ resid @ cy[:, :, None])[:, 0, 0]
    # moments[b, p, q] = d^(p+q) g / dphi_x^p dphi_y^q, each derivative
    # bringing down a factor -j pi i
    powers = np.arange(3)[:, None]
    xs = cx[:, None, :] * (-1j * np.pi * np.arange(1, nx + 1)) ** powers
    ys = cy[:, None, :] * (-1j * np.pi * np.arange(1, ny + 1)) ** powers
    moments = xs @ resid @ np.swapaxes(ys, 1, 2)
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
    opts: AoaOptions = AoaOptions(),
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
    over the stack, `_GRID_SLICE_POINTS`); coordinate-ascent sweeps then
    refine them, sweep position j of every unconverged snapshot in one
    stacked Newton solve. A snapshot leaves the stack after the first
    sweep that moved none of its cosines by ``_MOVE_TOL`` or more, so it
    runs the sweeps it would run alone; with one source, only a snapshot
    whose first ascent stopped unconverged sweeps at all.

    Returns an `AoaPosteriors`; with ``diagnostics`` its ``traces`` hold
    one non-decreasing joint-objective trace per snapshot (a value per
    sweep). Raises ValueError on non-finite samples, a noise power that is
    not finite and positive, a non-finite prior mean, a negative or
    non-finite concentration, an amplitude variance that is not positive
    (NaN included), or inputs of mismatched shapes.
    """
    y, sigw2, chi, kappa, prior_var = _checked_inputs(
        samples, noise_power, prior_chi, prior_kappa, coeff_prior_var
    )
    b_count, nx, ny = y.shape
    k_count = chi.shape[1]
    post_var = 1.0 / (nx * ny / sigw2 + 1.0 / prior_var)
    weights = post_var / sigw2**2
    every = np.arange(b_count)
    # (B, K): the source at each sweep position (lexsort is stable)
    order = np.lexsort((chi[..., 1], chi[..., 0], -np.sum(kappa, axis=-1)), axis=-1)
    phis = np.zeros((b_count, k_count, 2))
    coeffs = np.zeros((b_count, k_count), dtype=np.complex128)

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

    def model(rows):  # (b, K, nx, ny): every source of the snapshots rows
        steer = subarray_steering(nx, ny, phis[rows, :, 0], phis[rows, :, 1])
        return coeffs[rows, :, None, None] * steer

    def leave_one_out(rows, ks):
        """y minus every source of the snapshots ``rows`` but ``ks``."""
        if k_count == 1:
            return y[rows]
        others = np.arange(k_count) != ks[:, None]
        return y[rows] - np.sum(model(rows) * others[:, :, None, None], axis=1)

    def joint_objective(rows):
        misfit = np.abs(y[rows] - np.sum(model(rows), axis=1)) ** 2
        val = -np.sum(misfit, axis=(1, 2)) / sigw2[rows, 0]
        val -= np.sum(np.abs(coeffs[rows]) ** 2 / prior_var[rows], axis=1)
        return val + np.sum(kappa[rows] * np.cos(np.pi * phis[rows] - chi[rows]), axis=(1, 2))

    resid = y.copy()
    for j in range(k_count):
        ks = order[:, j]
        start = _periodogram_starts(resid, chi[every, ks], kappa[every, ks], weights[every, ks])
        fits = ascend(resid, every, ks, start)
        phis[every, ks] = fits.mean
        coeffs[every, ks] = coeff_update(resid, every, ks)
        resid = resid - model(every)[every, ks]

    traces = [[value] for value in joint_objective(every)] if diagnostics else None
    # one source: a sweep would repeat its converged ascent on the same residual
    active = every if k_count > 1 else every[~fits.converged]
    for _ in range(opts.max_sweeps):
        if active.size == 0:
            break
        max_move = np.zeros(active.size)
        for j in range(k_count):
            ks = order[active, j]
            resid_k = leave_one_out(active, ks)
            new_phi = ascend(resid_k, active, ks, phis[active, ks]).mean
            max_move = np.maximum(max_move, np.max(np.abs(new_phi - phis[active, ks]), axis=1))
            phis[active, ks] = new_phi
            coeffs[active, ks] = coeff_update(resid_k, active, ks)
        if diagnostics:
            for b, value in zip(active, joint_objective(active)):
                traces[b].append(value)
        active = active[max_move >= _MOVE_TOL]

    coeff_mean = np.empty_like(coeffs)
    kappa_post = np.empty_like(kappa)
    fallback = np.empty(kappa.shape, dtype=bool)
    for k in range(k_count):
        ks = np.full(b_count, k)
        resid_k = leave_one_out(every, ks)
        _, _, hess = _profiled_terms(resid_k, phis[:, k], chi[:, k], kappa[:, k], weights[:, k])
        coeff_mean[:, k] = coeff_update(resid_k, every, ks)
        curv = np.diagonal(hess, axis1=1, axis2=2)
        fallback[:, k] = curv >= 0
        kappa_post[:, k] = np.where(fallback[:, k], kappa[:, k], -curv / np.pi**2)
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
