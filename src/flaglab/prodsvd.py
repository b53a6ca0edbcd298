"""High-relative-accuracy SVD for long matrix products.

LAPACK's SVD loses the small singular values of a product as soon as the
spread exceeds 1/eps, because forming the product buries them under
roundoff of order eps * sigma_1.  Keeping the factorization
U diag(exp(logs)) V^H and absorbing one well-conditioned factor at a
time via one-sided Jacobi keeps every log-singular-value accurate to
roughly eps * cond(factor), which the gap-identity tests at 1e-9 need.
"""

from __future__ import annotations

import math

import numpy as np

_SWEEP_TOL = 1e-15
_MAX_SWEEPS = 40


def jacobi_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of a complex matrix, accurate in the relative
    sense for column-scaled inputs.  Returns (u, s, vh) with x = u @ diag(s) @ vh,
    s descending."""
    a = np.array(x, dtype=complex)
    n, m = a.shape
    v = np.eye(m, dtype=complex)
    for _ in range(_MAX_SWEEPS):
        off = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                app = np.vdot(a[:, p], a[:, p]).real
                aqq = np.vdot(a[:, q], a[:, q]).real
                apq = np.vdot(a[:, p], a[:, q])
                scale = math.sqrt(app) * math.sqrt(aqq)  # sqrt first: no underflow
                if scale == 0.0:
                    continue
                if abs(apq) <= _SWEEP_TOL * scale:
                    continue
                off = max(off, abs(apq) / scale)
                # rotation diagonalizing [[app, apq], [conj(apq), aqq]]
                phase = apq / abs(apq)
                zeta = (aqq - app) / (2.0 * abs(apq))
                if abs(zeta) > 1e150:
                    t = 1.0 / (2.0 * zeta)  # asymptotic branch, avoids zeta^2 overflow
                else:
                    t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = cs * col_p - sn * np.conj(phase) * col_q
                a[:, q] = sn * phase * col_p + cs * col_q
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = cs * vp - sn * np.conj(phase) * vq
                v[:, q] = sn * phase * vp + cs * vq
        if off == 0.0:
            break
    s = np.linalg.norm(a, axis=0)
    order = np.argsort(s)[::-1]
    s = s[order]
    a = a[:, order]
    v = v[:, order]
    u = np.zeros((n, m), dtype=complex)
    for j in range(m):
        if s[j] > 0:
            u[:, j] = a[:, j] / s[j]
        else:
            u[:, j] = 0.0
            u[min(j, n - 1), j] = 1.0
    return u, s, v.conj().T


class ProductSVD:
    """Running SVD of a product M = A_1 A_2 ... A_m, absorbed factor by factor.

    State is (u, logs, vh) with M = u @ diag(exp(logs)) @ vh and logs
    descending.  copy() is cheap, which lets prefix trees of words share
    their common history.
    """

    __slots__ = ("u", "logs", "vh")

    def __init__(self, dim: int):
        self.u = np.eye(dim, dtype=complex)
        self.logs = np.zeros(dim)
        self.vh = np.eye(dim, dtype=complex)

    def copy(self) -> "ProductSVD":
        out = ProductSVD.__new__(ProductSVD)
        out.u = self.u.copy()
        out.logs = self.logs.copy()
        out.vh = self.vh.copy()
        return out

    def absorb(self, factor: np.ndarray) -> "ProductSVD":
        """Right-multiply the represented product by `factor` (in place)."""
        b = self.vh @ factor
        top = self.logs[0]
        w = np.exp(self.logs - top)[:, None] * b
        # svd of the graded matrix via its column-scaled adjoint
        uw, s, vwh = jacobi_svd(w.conj().T)
        self.u = self.u @ vwh.conj().T
        with np.errstate(divide="ignore"):
            self.logs = np.log(s) + top
        self.vh = uw.conj().T
        return self

    def gaps(self) -> np.ndarray:
        """Half log-ratios of consecutive singular values, after projecting
        out the overall scale (gaps are scale invariant)."""
        return np.maximum(0.0, (self.logs[:-1] - self.logs[1:]) / 2.0)

    def log_sigma(self, normalized: bool = True) -> np.ndarray:
        """Log singular values; normalized subtracts the mean, i.e. rescales
        the product to unit |det|."""
        if normalized:
            return self.logs - self.logs.mean()
        return self.logs.copy()
