"""Marker geometry: averaged vectors, stretches, inequalities.

The load-bearing identity: for any deformation ``u = lam x + psi`` with
``psi`` periodic on a ``k x k`` supercell, the cell averages of the
deformed marker vectors satisfy ``atilde_i = lam a_i`` -- the periodic
part telescopes away along the straight spring lines the markers sit on.
Combined with ``r = c R(alpha) b`` this forces ``lam R(alpha) a1 =
R(alpha) lam a1`` for mechanisms.  The size of the commutator
``lam R - R lam`` on a unit vector is ``|sin(alpha)| * (sigma1 -+
sigma2)``, whose square over ``sin(alpha)^2`` is the first term of the
lower-bound bracket here.

Also provided: an orientation-aware singular value decomposition, the
lower-bound bracket built from principal stretches, grid certificates for
the scalar inequalities used by the lower-bound argument, and sampled
rigidity constants for a single spring triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import (PeriodicDeformation, _check_size, cross2, edge_vectors, lam_times,
                      ordered_sum, rotation)

__all__ = [
    "averaged_vectors",
    "lambda_from_averages",
    "principal_stretches",
    "StretchData",
    "signed_svd",
    "lower_bracket",
    "ScalarInequalityReport",
    "scalar_inequality_report",
    "triangle_reference",
    "triangle_spring_energy",
    "triangle_deviation",
    "RigidityEstimate",
    "rigidity_constant",
    "sample_triangle_deformations",
    "ConformalFieldReport",
    "conformal_check",
]


# ---------------------------------------------------------------------------
# averaged marker vectors
# ---------------------------------------------------------------------------


def averaged_vectors(defm: PeriodicDeformation):
    """Reference and deformed cell averages of the marker vectors.

    Returns ``(a1, a2, at1, at2)`` where ``a_i`` sum the reference ``b``
    and ``r`` vectors over markers and ``at_i`` average the deformed ones
    over all cells (divided by ``k^2`` only, matching the reference
    normalization).
    """
    cell = defm.cell
    kk = cell.k * cell.k
    Z, lam = defm.psi.reshape(1, -1), defm.lam[None]
    bt, rt = (edge_vectors(Z, tail, head, lam_times(lam, dx))[0]
              for tail, head, dx in (cell.marker_b, cell.marker_r))
    return (ordered_sum(cell.marker_b.dx), ordered_sum(cell.marker_r.dx),
            ordered_sum(bt.sum(axis=1) / kk), ordered_sum(rt.sum(axis=1) / kk))


def lambda_from_averages(defm: PeriodicDeformation) -> np.ndarray:
    """Recover the affine part from averaged marker vectors: the unique
    matrix with ``atilde_i = lam a_i``."""
    a1, a2, at1, at2 = averaged_vectors(defm)
    A = np.column_stack([a1, a2])
    At = np.column_stack([at1, at2])
    return At @ np.linalg.inv(A)


# ---------------------------------------------------------------------------
# stretches and the lower-bound bracket
# ---------------------------------------------------------------------------


def principal_stretches(lam):
    """Singular values and determinant sign, vectorized over ``(..., 2, 2)``.

    Returns ``(sigma1, sigma2, det_sign)`` with ``sigma1 >= sigma2 >= 0``
    and ``det_sign`` +1 for ``det >= 0``, else -1.
    """
    lam = np.asarray(lam, dtype=float)
    a, b = lam[..., 0, 0], lam[..., 0, 1]
    c, d = lam[..., 1, 0], lam[..., 1, 1]
    P = np.hypot(a + d, b - c)
    M = np.hypot(a - d, b + c)
    sigma1 = 0.5 * (P + M)
    sigma2 = 0.5 * np.abs(P - M)
    det_sign = np.where(a * d - b * c >= 0, 1.0, -1.0)
    return sigma1, sigma2, det_sign


@dataclass
class StretchData:
    """The singular values ``sigma1 >= sigma2`` of ``lam`` and the sign of
    ``det lam`` (``+1`` when it is zero): floats, or arrays over a stack."""

    sigma1: float
    sigma2: float
    det_sign: float


def signed_svd(lam) -> StretchData:
    """The :class:`StretchData` of ``lam`` ``(..., 2, 2)`` by LAPACK's SVD,
    which factors each matrix of a stack on its own: every value has the
    bits of a call on that matrix alone."""
    lam = np.asarray(lam, dtype=float)
    # the full factorization: LAPACK's values-only path moves the last bits
    S = np.linalg.svd(lam).S
    det_sign = np.where(np.linalg.det(lam) >= 0, 1.0, -1.0)
    if lam.ndim == 2:
        return StretchData(float(S[0]), float(S[1]), float(det_sign))
    return StretchData(S[..., 0], S[..., 1], det_sign)


def _pos_sq(x):
    """The squared positive part ``max(x, 0)^2``, elementwise."""
    return np.maximum(x, 0.0) ** 2


def lower_bracket(lam):
    """The quantity the effective energy density is bounded below by a
    multiple of: ``(sigma1 -+ sigma2)^2 + (sigma1 - 1)_+^2 +
    (sigma2 - 1)_+^2`` with ``-`` for ``det >= 0`` and ``+`` otherwise.
    Vectorized over stacked matrices."""
    s1, s2, ds = principal_stretches(lam)
    first = np.where(ds >= 0, (s1 - s2) ** 2, (s1 + s2) ** 2)
    return first + _pos_sq(s1 - 1) + _pos_sq(s2 - 1)


# ---------------------------------------------------------------------------
# scalar inequality certificates
# ---------------------------------------------------------------------------


_SLACK_TOL = 1e-12  # how far below zero a certified slack may round


@dataclass
class ScalarInequalityReport:
    name: str
    min_slack: float
    argmin: tuple
    witness: Optional[tuple] = None

    @property
    def holds(self) -> bool:
        return self.min_slack >= -_SLACK_TOL


def _pair_grid(step):
    vals = np.arange(0.0, 3.0 + 0.5 * step, step)
    l1, l2 = np.meshgrid(vals, vals, indexing="ij")
    keep = l1 >= l2
    return l1[keep], l2[keep]


def _compression_parts(l1, l2, period):
    """The inputs of the three-direction compression sweep: per ``(l1,
    l2)`` pair ``a = l2^2``, ``b = l1^2 - l2^2`` and the right-hand side
    ``(sqrt(3/4 l1^2 + 1/4 l2^2) - 1)_+^2``, and per angle of ``period``
    the list of ``cos^2(theta + o)`` over ``o = 0, pi/3, 2 pi/3``."""
    rhs = _pos_sq(np.sqrt(0.75 * l1**2 + 0.25 * l2**2) - 1.0)
    cos2 = [np.cos(period + o) ** 2 for o in (0.0, np.pi / 3, 2 * np.pi / 3)]
    return l2**2, l1**2 - l2**2, rhs, cos2


def _direction_term(a, b, c2):
    """One direction's term ``(sqrt(a + b c2) - 1)_+^2`` of the
    compression sum.  Every operation rounds to nearest and so is
    monotone; with ``b >= 0`` the term is a non-decreasing function of
    ``c2``."""
    return _pos_sq(np.sqrt(a + b * c2) - 1.0)


def _compression_slack(l1, l2, period, size):
    """Yield, block by block of consecutive angles of ``period``, the
    slack of the three-direction compression inequality at every ``(l1,
    l2)`` pair: ``sum_o (|diag(l1, l2) e_(theta + o)| - 1)_+^2`` over ``o
    = 0, pi/3, 2 pi/3`` in that order, minus ``(sqrt(3/4 l1^2 + 1/4 l2^2)
    - 1)_+^2``.  A block is an ``(angles, pairs)`` array, row ``r`` the
    slack at its ``r``-th angle.

    Each term is ``sqrt(a + b cos^2)``, the stretch along one direction
    of ``direction_stretch`` in ``tests/test_geometry.py``, broadcast over
    the block, so every element has the bits of the one-angle expression.
    A block holds ``size // pairs`` angles, at least one (the last block
    the angles left), so each of its arrays holds at most ``max(size,
    pairs)`` elements.
    """
    a, b, rhs, cos2 = _compression_parts(l1, l2, period)
    rows = max(1, size // len(a))
    for start in range(0, len(period), rows):
        block = slice(start, start + rows)
        # a square is never -0.0, so 0 + the first term is that term
        yield sum(_direction_term(a, b, c2[block, None]) for c2 in cos2) - rhs


def scalar_inequality_report(lam_step: float = 0.01, theta_step: float = 0.001):
    """Certify the scalar inequalities behind the lower bound on dense
    grids; returns a list of :class:`ScalarInequalityReport`.

    Grids: ``0 <= l2 <= l1 <= 3`` in steps of ``lam_step`` and directions
    ``theta in [0, 2 pi)`` in steps of ``theta_step``.  The
    three-direction compression sum depends on theta only through
    ``cos^2(theta + o)``, ``o in {0, pi/3, 2 pi/3}``, so it has period
    ``pi/3`` and is swept over the grid points in ``[0, pi/3)`` only.

    That sweep is evaluated a block of angles at a time, each array of a
    block at most as large as the pair grid, so its memory is O(pairs)
    however fine the angle grid: the fewer pairs the bound below leaves
    to sweep, the more angles one block holds.
    Each reported minimum is the first one in (theta, pair) row-major
    order.

    The sweep skips every pair whose slack a lower bound proves
    non-negative at every angle.  Let ``m`` be the least, over the
    sweep's angles, of the largest of its three ``cos^2``, and ``low``
    one direction term at ``c2 = m``, computed by the sweep's own
    :func:`_direction_term`.  Since ``b >= 0`` and rounding to nearest
    is monotone (Goldberg, ACM Computing Surveys 23, 1991), ``low`` is
    at most the term of each angle's largest direction; the three terms
    are ``>= 0``, so their rounded sum is at least each of them, and the
    slack at every angle is at least ``fl(low - rhs)``.  A pair whose
    bound is ``>= 0`` never goes below 0.  Pair ``(0, 0)``, which comes
    first, has slack exactly 0 at the first angle and is always swept.
    So the first strict minimum over the swept pairs is the one over all
    pairs, whether it is 0 or negative, and the report has the bits of
    the exhaustive sweep.  On the default grid the sweep keeps 1 of
    45,451 pairs.

    Both steps must be finite; ``lam_step <= 3`` and ``theta_step < pi/3``,
    so that the compression sweep holds at least two angles.  Neither grid
    may pass the grid limit: the stretch grid is a square of
    ``3 / lam_step + 1`` values a side, the angle grid a line of
    ``2 pi / theta_step``.  Each limit is checked before any array is made.
    """
    for name, step in (("lam_step", lam_step), ("theta_step", theta_step)):
        if not step > 0:
            raise ValueError(f"{name} must be positive, got {step:g}")
        if not np.isfinite(step):
            raise ValueError(f"{name} must be finite, got {step:g}")
    side = 3 / lam_step + 1    # squared by multiplying, which overflows to inf where ** raises
    _check_size(side * side, f"the stretch grid points of lam_step {lam_step:g}")
    _check_size(2 * np.pi / theta_step, f"the angles of theta_step {theta_step:g}")
    if lam_step > 3:
        raise ValueError(f"lam_step must be at most 3, the largest stretch, got {lam_step:g}")
    if theta_step >= np.pi / 3:
        raise ValueError("theta_step must be below pi/3 so the three-direction sweep "
                         f"holds two angles, got {theta_step:g}")
    reports = []
    l1, l2 = _pair_grid(lam_step)
    theta = np.arange(0.0, 2 * np.pi, theta_step)

    # direction maxima: max_d cos^2(theta + offsets) with its floor
    for name, offsets, floor, witness_angle in (
        ("three-direction-max", (0.0, np.pi / 3, 2 * np.pi / 3), 0.75, np.pi / 2),
        ("two-direction-max", (0.0, np.pi / 2), 0.5, np.pi / 4),
    ):
        tmax = np.max([np.cos(theta + o) ** 2 for o in offsets], axis=0)
        arg = int(np.argmin(tmax))
        wit = max(np.cos(witness_angle + o) ** 2 for o in offsets)
        reports.append(
            ScalarInequalityReport(
                name, float(np.min(tmax) - floor), (float(theta[arg]),),
                witness=(float(witness_angle), float(wit)),
            )
        )

    # sum of three direction compressions dominates one quadratic mean
    best = (np.inf, (0.0, 0.0, 0.0))
    period = theta[theta < np.pi / 3]
    a, b, rhs, cos2 = _compression_parts(l1, l2, period)
    swept = _direction_term(a, b, np.max(cos2, axis=0).min()) - rhs < 0
    swept[0] = True    # pair (0, 0)
    s1, s2 = l1[swept], l2[swept]
    start = 0
    for block in _compression_slack(s1, s2, period, len(a)):
        # the first minimum of the block in (theta, pair) row-major order
        i, j = divmod(int(np.argmin(block)), block.shape[1])
        if block[i, j] < best[0]:
            best = (float(block[i, j]), (float(s1[j]), float(s2[j]), float(period[start + i])))
        start += len(block)
    reports.append(ScalarInequalityReport("three-direction-compression", best[0], best[1]))

    # commutator + compression dominate the positive-part bracket
    for name, w1 in (
        ("commutator-compression-three", 0.75),
        ("commutator-compression-two", 0.5),
    ):
        lhs = (l1 - l2) ** 2 + _pos_sq(np.sqrt(w1 * l1**2 + (1 - w1) * l2**2) - 1.0)
        rhs2 = 0.25 * (_pos_sq(l1 - 1.0) + _pos_sq(l2 - 1.0))
        slack = lhs - rhs2
        j = int(np.argmin(slack))
        reports.append(
            ScalarInequalityReport(name, float(slack[j]), (float(l1[j]), float(l2[j])))
        )
    return reports


# ---------------------------------------------------------------------------
# single-triangle rigidity
# ---------------------------------------------------------------------------


def triangle_reference(alpha: float) -> np.ndarray:
    """Vertices ``(A, B, C)`` of the marker triangle: unit legs ``CB`` and
    ``AB`` meeting at ``B`` with angle ``alpha``; ``b = B - C``,
    ``r = B - A = R(alpha) b``."""
    return np.array([
        [-np.cos(alpha), -np.sin(alpha)],   # A
        [0.0, 0.0],                        # B
        [-1.0, 0.0],                       # C
    ])


def triangle_spring_energy(pts, alpha: float):
    """Three-spring energy of deformed triangles ``pts`` with shape
    ``(..., 3, 2)``: springs along ``AB``, ``CB`` (rest 1) and ``AC``."""
    A, B, C = pts[..., 0, :], pts[..., 1, :], pts[..., 2, :]
    ref = triangle_reference(alpha)
    ac_rest = float(np.linalg.norm(ref[0] - ref[2]))
    e = (np.linalg.norm(B - A, axis=-1) - 1.0) ** 2
    e += (np.linalg.norm(B - C, axis=-1) - 1.0) ** 2
    e += (np.linalg.norm(A - C, axis=-1) - ac_rest) ** 2
    return e


def triangle_deviation(pts, alpha: float):
    """Deviation ``z = r_def - R(+-alpha) b_def`` with the rotation sign
    matching the deformed orientation; shape ``(..., 2)``."""
    A, B, C = pts[..., 0, :], pts[..., 1, :], pts[..., 2, :]
    b = B - C
    r = B - A
    s = np.where(cross2(b, r) >= 0, 1.0, -1.0)
    ca, sa = np.cos(alpha), np.sin(alpha)
    rot_b = np.stack([
        ca * b[..., 0] - s * sa * b[..., 1],
        s * sa * b[..., 0] + ca * b[..., 1],
    ], axis=-1)
    return r - rot_b


def sample_triangle_deformations(alpha: float, n: int, seed: int):
    """Random rigid motions (half of them composed with a reflection) of
    the reference triangle plus vertex noise; returns deformed vertices
    of shape ``(n, 3, 2)``."""
    rng = np.random.default_rng(seed)
    ref = triangle_reference(alpha)
    scales = rng.choice((0.01, 0.05, 0.1), size=n)
    pts = ref[None, :, :] + scales[:, None, None] * rng.uniform(-1, 1, size=(n, 3, 2))
    reflect = rng.random(n) < 0.5
    pts[reflect, :, 1] *= -1.0
    R = rotation(rng.uniform(0, 2 * np.pi, size=n))
    pts = np.einsum("nij,nkj->nki", R, pts)
    pts += rng.uniform(-1, 1, size=(n, 1, 2))
    return pts


@dataclass
class RigidityEstimate:
    """Sampled constants for the triangle rigidity estimates

    ``E >= c |z|^2``  and  ``|cos(gamma) - cos(alpha)| <= cos_coeff * sqrt(E)``

    valid for deformed triangles with ``E <= energy_cap``; ``gamma`` is the
    unsigned deformed angle between the marker legs.  ``c`` keeps a 10%
    safety margin below the worst sampled ratio, ``cos_coeff`` 10% above.
    """

    c: float
    cos_coeff: float
    energy_cap: float
    n_admissible: int


def rigidity_constant(alpha: float = np.pi / 3, n_samples: int = 100000,
                      seed: int = 0) -> RigidityEstimate:
    """Estimate the rigidity constants of the marker triangle by sampling
    the deformed triangles of energy at most 1/36."""
    energy_cap = 1.0 / 36.0
    if not 0 < alpha < np.pi:
        raise ValueError(f"alpha must be in (0, pi), got {alpha:g}")
    pts = sample_triangle_deformations(alpha, n_samples, seed)
    E = triangle_spring_energy(pts, alpha)
    keep = E <= energy_cap
    E = E[keep]
    pts = pts[keep]
    z2 = np.sum(triangle_deviation(pts, alpha) ** 2, axis=-1)

    b = pts[:, 1] - pts[:, 2]
    r = pts[:, 1] - pts[:, 0]
    cosg = np.sum(b * r, axis=1) / (
        np.linalg.norm(b, axis=1) * np.linalg.norm(r, axis=1))
    cos_dev = np.abs(cosg - np.cos(alpha))

    nz = z2 > 1e-24
    ratios = E[nz] / z2[nz]
    c = 0.9 * float(np.min(ratios)) if nz.any() else np.inf
    pos = E > 1e-24
    cos_coeff = 1.1 * float(np.max(cos_dev[pos] / np.sqrt(E[pos]))) if pos.any() else 0.0
    return RigidityEstimate(
        c=c, cos_coeff=cos_coeff, energy_cap=energy_cap, n_admissible=int(keep.sum()),
    )


# ---------------------------------------------------------------------------
# conformality of gradient fields
# ---------------------------------------------------------------------------


@dataclass
class ConformalFieldReport:
    """Cauchy-Riemann diagnostics of a sampled gradient field.

    ``cr_residual_1`` and ``cr_residual_2`` are the rms values over the
    samples of ``g00 - g11`` and ``g01 + g10``; ``max_factor`` is the
    largest conformal factor ``(sigma1 + det_sign sigma2) / 2`` (the
    modulus of the best local ``c R`` fit, and of the complex derivative
    when the field is conformal; compressive means at most 1).
    """

    cr_residual_1: float
    cr_residual_2: float
    max_factor: float
    n_fields: int

    @property
    def cr_residual(self) -> float:
        return float(np.hypot(self.cr_residual_1, self.cr_residual_2))


def conformal_check(grads) -> ConformalFieldReport:
    """Measure how far a field of 2x2 gradients, equally weighted, is from
    compressive conformal: Cauchy-Riemann residuals and the largest
    conformal factor."""
    grads = np.asarray(grads, dtype=float).reshape(-1, 2, 2)
    if len(grads) == 0:
        raise ValueError("need at least one gradient sample")
    w = np.full(len(grads), 1.0 / len(grads))
    r1 = grads[:, 0, 0] - grads[:, 1, 1]
    r2 = grads[:, 0, 1] + grads[:, 1, 0]
    s1, s2, det_sign = principal_stretches(grads)
    return ConformalFieldReport(
        cr_residual_1=float(np.sqrt(np.sum(w * r1**2))),
        cr_residual_2=float(np.sqrt(np.sum(w * r2**2))),
        max_factor=float(np.max(0.5 * (s1 + det_sign * s2))),
        n_fields=len(grads),
    )
