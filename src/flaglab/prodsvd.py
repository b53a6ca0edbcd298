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

The engine works in the dtype of its input: float64 for real matrices,
complex128 otherwise.  One-sided Jacobi keeps its relative accuracy in
real arithmetic (Demmel & Veselic 1992), and below 16 rows a real input
gives the bits of its complex cast (see jacobi_svd), so a real
representation runs in float64 without moving a flag.

Only boundary flags run here (certify.boundary_samples): they need the
left factor u, the attracting frame.  The gap readers, certify.gap_sweep
and the certificates' doubling witnesses (certify._doubling_ratios),
read top singular values of exterior powers instead
(certify.WedgeProducts) and know no spread limit; this engine's squared
column norms still stop a flag past a log-singular spread of about 372
nats.
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
    """One-sided Jacobi SVD of a matrix or stack of matrices, accurate in
    the relative sense for column-scaled inputs.  Returns (u, s, vh) with
    x = u @ diag(s) @ vh, s descending; u and vh are float64 for real
    input and complex128 otherwise.

    A real input gives the bits of the same input cast to complex, which
    takes two choices.  Every division by a real array is written as a
    product with its reciprocal, as NumPy divides a complex array by a
    real one.  And every column dot must add its terms one after another,
    which is a property of the BLAS kernel that np.vecdot calls, not of
    NumPy.  So each column is held as a row: contiguous for float64,
    because OpenBLAS's contiguous ddot adds term by term below length 16
    while its strided ddot sums in two interleaved accumulators; in every
    other slot for complex128, because its strided zdotc adds term by
    term at any length while its contiguous one sums in blocks of 8.  A
    real matrix of 16 or more rows may therefore differ from its complex
    cast in the last place.
    """
    a = np.asarray(x)
    a = a.astype(np.result_type(a, np.float64), copy=False)
    batch, (n, m) = a.shape[:-2], a.shape[-2:]
    a = a.reshape((-1, n, m))
    # av[j, b] holds column j of a[b], then of v: one rotation of the rows
    # av[p], av[q] turns both, over the whole stack in one flat loop.  A
    # complex row takes every other slot (see above)
    step = 2 if np.iscomplexobj(a) else 1
    av = np.zeros((m, len(a), step * (n + m)), a.dtype)[:, :, ::step]
    av[:, :, :n] = np.moveaxis(a, -1, 0)
    av[:, :, n:] = np.eye(m)[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_SWEEPS):
            rotated = False
            for p, q in combinations(range(m), 2):
                ap, aq = av[p, :, :n], av[q, :, :n]
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
                phase = apq * (1.0 / mag)
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
                cp, cq = av[p], av[q]
                av[p], av[q] = (
                    np.where(rot, cs * cp - fp * cq, cp),
                    np.where(rot, fq * cp + cs * cq, cq),
                )
            if not rotated:
                break
        s = np.sqrt(sum(np.moveaxis((av[..., :n].conj() * av[..., :n]).real, -1, 0))).T  # as for one matrix
        order = np.argsort(s, axis=-1)[:, ::-1]  # ties in the one-matrix order
        s = np.take_along_axis(s, order, axis=-1)
        av = np.take_along_axis(np.moveaxis(av, 0, 1), order[:, :, None], axis=1)
        ut = av[:, :, :n] * (1.0 / np.where(s > 0, s, 1.0))[:, :, None]
    zi, zj = np.nonzero(s == 0)
    ut[zi, zj] = 0.0
    ut[zi, zj, np.minimum(zj, n - 1)] = 1.0
    u = np.swapaxes(ut, -1, -2).reshape(batch + (n, m))
    vh = np.conj(av[:, :, n:]).reshape(batch + (m, m))
    return u, s.reshape(batch + (m,)), vh


class ProductSVD:
    """Running SVDs of products M = A_1 A_2 ... A_m, absorbed factor by factor.

    State is (u, logs, vh) with M = u @ diag(exp(logs)) @ vh and logs
    descending, for one product (batch ()) or a stack (batch (n,)).  u and
    vh start as identities of the given dtype and take the factors' dtype:
    real factors keep a float64 state real, a complex one makes it complex.
    Indexing a stack gathers a sub-stack.
    """

    __slots__ = ("u", "logs", "vh")

    def __init__(self, dim: int, batch: tuple[int, ...] = (), dtype=complex):
        self.vh = np.broadcast_to(np.eye(dim, dtype=dtype), tuple(batch) + (dim, dim)).copy()
        self.logs = np.zeros(tuple(batch) + (dim,))
        self.u = self.vh.copy()

    @classmethod
    def _of(cls, u, logs, vh) -> "ProductSVD":
        out = cls.__new__(cls)
        out.u, out.logs, out.vh = u, logs, vh
        return out

    def __getitem__(self, idx) -> "ProductSVD":
        return self._of(self.u[idx], self.logs[idx], self.vh[idx])

    def absorb(self, factor: np.ndarray) -> "ProductSVD":
        """Right-multiply the represented products by `factor` (in place):
        one matrix for all of them, or one per product.  Past the spread
        limit (see gaps) the state turns non-finite without a warning, in
        real arithmetic as in complex."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b = self.vh @ factor
            top = self.logs[..., :1]
            w = np.exp(self.logs - top)[..., :, None] * b
            # svd of the graded matrix via its column-scaled adjoint; its
            # right factor only updates u
            uw, s, vwh = jacobi_svd(_h(w))
            self.u = self.u @ _h(vwh)
            self.logs = np.log(s) + top
        self.vh = _h(uw)
        return self

    def gaps(self) -> np.ndarray:
        """Half log-ratios of consecutive singular values, after projecting
        out the overall scale (gaps are scale invariant).  jacobi_svd squares
        column norms, so past a spread of about 372 nats the smallest values
        flush to zero, their logs to -inf, and the gaps stop being finite;
        callers check."""
        with np.errstate(invalid="ignore"):
            return np.maximum(0.0, (self.logs[..., :-1] - self.logs[..., 1:]) / 2.0)
