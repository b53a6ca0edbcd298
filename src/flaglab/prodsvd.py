"""High-relative-accuracy SVD for long matrix products, one or many at once.

LAPACK's SVD loses the small singular values of a product as soon as the
spread exceeds 1/eps, because forming the product buries them under
roundoff of order eps * sigma_1.  Keeping the factorization
U diag(exp(logs)) V^H and absorbing one well-conditioned factor at a
time via one-sided Jacobi keeps every log-singular-value accurate to
roughly eps * cond(factor), which the gap-identity tests at 1e-9 need.

Everything here takes any leading batch shape: (d, d) is one product and
(n, d, d) is n products.  Each pair rotation is applied to the whole
stack at once, and a matrix that needs no rotation at a pair is left
exactly as it is, so every product comes out as if it ran alone.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

_SWEEP_TOL = 1e-15
_MAX_SWEEPS = 40


def _h(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(x, -1, -2))


def jacobi_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of a complex matrix or stack of matrices,
    accurate in the relative sense for column-scaled inputs.  Returns
    (u, s, vh) with x = u @ diag(s) @ vh, s descending."""
    a = np.array(x, dtype=complex)
    batch, (n, m) = a.shape[:-2], a.shape[-2:]
    a = a.reshape((-1, n, m))
    # a on top of v, so that one rotation of columns p, q turns both
    av = np.concatenate([a, np.broadcast_to(np.eye(m, dtype=complex), (len(a), m, m))], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_SWEEPS):
            rotated = False
            for p, q in combinations(range(m), 2):
                ap, aq = av[:, :n, p], av[:, :n, q]
                app, aqq = np.vecdot(ap, ap).real, np.vecdot(aq, aq).real
                apq = np.vecdot(ap, aq)
                scale = np.sqrt(app) * np.sqrt(aqq)  # sqrt first: no underflow
                mag = np.hypot(apq.real, apq.imag)  # np.abs of an array may differ in the last bit
                rot = (scale != 0.0) & (mag > _SWEEP_TOL * scale)
                if not rot.any():
                    continue
                rotated = True
                # rotation diagonalizing [[app, apq], [conj(apq), aqq]]; the
                # matrices with rot False keep their columns exactly
                phase = apq / mag
                zeta = (aqq - app) / (2.0 * mag)
                t = np.where(
                    np.abs(zeta) > 1e150,
                    1.0 / (2.0 * zeta),  # asymptotic branch, avoids zeta^2 overflow
                    np.copysign(1.0, zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)),
                )
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = cs * t
                cs, rot = cs[:, None], rot[:, None]
                fp, fq = (sn * np.conj(phase))[:, None], (sn * phase)[:, None]
                cp, cq = av[:, :, p], av[:, :, q]
                av[:, :, p], av[:, :, q] = (
                    np.where(rot, cs * cp - fp * cq, cp),
                    np.where(rot, fq * cp + cs * cq, cq),
                )
            if not rotated:
                break
    s = np.sqrt(sum(np.moveaxis((av[:, :n].conj() * av[:, :n]).real, -2, 0)))  # as for one matrix
    order = np.argsort(s, axis=-1)[:, ::-1]  # ties in the one-matrix order
    s = np.take_along_axis(s, order, axis=-1)
    av = np.take_along_axis(av, order[:, None, :], axis=-1)
    u = av[:, :n] / np.where(s > 0, s, 1.0)[:, None, :]
    zi, zj = np.nonzero(s == 0)
    u[zi, :, zj] = 0.0
    u[zi, np.minimum(zj, n - 1), zj] = 1.0
    return u.reshape(batch + (n, m)), s.reshape(batch + (m,)), _h(av[:, n:]).reshape(batch + (m, m))


class ProductSVD:
    """Running SVDs of products M = A_1 A_2 ... A_m, absorbed factor by factor.

    State is (u, logs, vh) with M = u @ diag(exp(logs)) @ vh and logs
    descending, for one product (batch ()) or a stack (batch (n,)).
    Indexing a stack gathers a sub-stack and assigning to an index
    scatters one back; copy() is cheap.
    """

    __slots__ = ("u", "logs", "vh")

    def __init__(self, dim: int, batch: tuple[int, ...] = ()):
        self.u = np.broadcast_to(np.eye(dim, dtype=complex), tuple(batch) + (dim, dim)).copy()
        self.logs = np.zeros(tuple(batch) + (dim,))
        self.vh = self.u.copy()

    @classmethod
    def _of(cls, u, logs, vh) -> "ProductSVD":
        out = cls.__new__(cls)
        out.u, out.logs, out.vh = u, logs, vh
        return out

    def copy(self) -> "ProductSVD":
        return self._of(self.u.copy(), self.logs.copy(), self.vh.copy())

    def __getitem__(self, idx) -> "ProductSVD":
        return self._of(self.u[idx], self.logs[idx], self.vh[idx])

    def __setitem__(self, idx, other: "ProductSVD"):
        self.u[idx], self.logs[idx], self.vh[idx] = other.u, other.logs, other.vh

    def absorb(self, factor: np.ndarray) -> "ProductSVD":
        """Right-multiply the represented products by `factor` (in place):
        one matrix for all of them, or one per product."""
        b = self.vh @ factor
        top = self.logs[..., :1]
        w = np.exp(self.logs - top)[..., :, None] * b
        # svd of the graded matrix via its column-scaled adjoint
        uw, s, vwh = jacobi_svd(_h(w))
        self.u = self.u @ _h(vwh)
        with np.errstate(divide="ignore"):
            self.logs = np.log(s) + top
        self.vh = _h(uw)
        return self

    def gaps(self) -> np.ndarray:
        """Half log-ratios of consecutive singular values, after projecting
        out the overall scale (gaps are scale invariant).  Past a spread of
        about 745 nats the smallest values underflow to -inf and the gaps
        stop being finite; callers check."""
        with np.errstate(invalid="ignore"):
            return np.maximum(0.0, (self.logs[..., :-1] - self.logs[..., 1:]) / 2.0)
