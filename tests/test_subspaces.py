import math
import warnings

import numpy as np
import pytest

from flaglab.errors import InputError
from flaglab.prodsvd import ProductSVD, jacobi_svd
from flaglab.subspaces import frame_complements, frame_sines

from conftest import log_sigma, matrix_gaps, random_sl, random_subspace, random_unitary
from oracles import hausdorff_subspace_dist, orth


# --- gap profiles -----------------------------------------------------------


def test_gaps_identity():
    assert np.array_equal(matrix_gaps(np.eye(4)), np.zeros(3))


def test_gaps_diagonal():
    gaps = matrix_gaps(np.diag([4.0, 2.0, 1.0]))
    assert np.allclose(gaps, 0.5 * math.log(2.0), atol=1e-12, rtol=0)


def test_gaps_scale_invariant():
    rng = np.random.default_rng(1)
    m = random_sl(rng, 4)
    assert np.allclose(matrix_gaps(m), matrix_gaps(7.0 * m), atol=1e-12, rtol=0)


def test_gaps_adjoint_and_reversal():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = random_sl(rng, 5)
        g = matrix_gaps(m)
        assert np.allclose(g, matrix_gaps(m.conj().T), atol=1e-10, rtol=0)
        # inverse-transpose (and the adjugate, its scalar multiple) reverse gaps
        rev = matrix_gaps(np.linalg.inv(m).T)
        assert np.allclose(g, rev[::-1], atol=1e-10, rtol=0)


# --- transversality -----------------------------------------------------------


def _smallest_sines(a, b):
    """Smallest principal sines between the frame stacks a and b."""
    return frame_sines(a, frame_complements(b))[..., 0]


def _coordinate(d, indices):
    """Frame (d, k) of the span of the given standard basis vectors."""
    return np.eye(d, dtype=complex)[:, indices]


def test_transversality_examples():
    e1 = _coordinate(3, [0])
    e2 = _coordinate(3, [1])
    assert _smallest_sines(e1, e2) == pytest.approx(1.0, abs=1e-12)
    assert _smallest_sines(e1, e1) == pytest.approx(0.0, abs=1e-7)
    theta = 0.3
    v = np.array([[math.cos(theta)], [math.sin(theta)], [0.0]], dtype=complex)
    assert _smallest_sines(e1, v) == pytest.approx(math.sin(theta), abs=1e-12)


def test_transversality_needs_dims_at_most_d():
    # two planes in C^3 always meet, but the complement of b is one line, so
    # frame_sines returns d - dim b = 1 sine, fewer than dim a, and no zero:
    # a smallest sine means transversality only when dim a + dim b <= d
    a = _coordinate(3, [0, 1])
    b = _coordinate(3, [1, 2])
    assert frame_sines(a, frame_complements(b)).tolist() == [1.0]


def test_transversality_zero_iff_intersecting():
    rng = np.random.default_rng(5)
    pairs = [(random_subspace(rng, 6, 2), random_subspace(rng, 6, 3)) for _ in range(30)]
    a, b = map(np.stack, zip(*pairs))
    assert (_smallest_sines(a, b) > 1e-3).all()  # generic position
    shared = random_subspace(rng, 6, 1)
    ext = orth(np.concatenate([shared, random_subspace(rng, 6, 1)], axis=1))
    assert _smallest_sines(shared, ext) < 1e-10


# --- metrics -------------------------------------------------------------------


def test_fubini_study_metric_axioms():
    # on lines the subspace distance is the Fubini-Study distance
    rng = np.random.default_rng(6)
    for _ in range(1000):
        p = random_subspace(rng, 4, 1)
        q = random_subspace(rng, 4, 1)
        r = random_subspace(rng, 4, 1)
        dpq = hausdorff_subspace_dist(p, q)
        assert dpq == pytest.approx(hausdorff_subspace_dist(q, p), abs=1e-12)
        assert 0.0 <= dpq <= math.pi / 2 + 1e-12
        assert hausdorff_subspace_dist(p, r) <= dpq + hausdorff_subspace_dist(q, r) + 1e-10


def test_hausdorff_examples():
    a = _coordinate(3, [0, 1])
    b = _coordinate(3, [0, 2])
    assert hausdorff_subspace_dist(a, a) == pytest.approx(0.0, abs=1e-12)
    assert hausdorff_subspace_dist(a, b) == pytest.approx(math.pi / 2, abs=1e-12)
    assert hausdorff_subspace_dist(a[:, :0], b[:, :0]) == 0.0
    with pytest.raises(InputError, match="one shape"):
        hausdorff_subspace_dist(a, _coordinate(3, [0]))  # dimensions differ
    with pytest.raises(InputError, match="one shape"):
        hausdorff_subspace_dist(a, _coordinate(4, [0, 1]))  # ambient dimensions differ


def _nullspace_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent oracle: stack the orthogonal-complement constraints and
    solve for the common nullspace."""
    rows = np.concatenate([frame_complements(a).conj().T, frame_complements(b).conj().T], axis=0)
    _, s, vh = np.linalg.svd(rows)
    null_count = int(np.sum(np.concatenate([s, np.zeros(rows.shape[1] - len(s))]) < 1e-8))
    return vh[len(vh) - null_count :].conj().T


def test_hausdorff_two_sided_identity():
    # for hyperplanes x, y with z the orthocomplement of their intersection,
    # the Grassmannian distance equals the line distance inside z
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = random_subspace(rng, 4, 3)
        y = random_subspace(rng, 4, 3)
        meet = _nullspace_intersection(x, y)
        assert meet.shape == (4, 2)
        z = frame_complements(meet)
        lhs = hausdorff_subspace_dist(x, y)
        rhs = hausdorff_subspace_dist(_nullspace_intersection(x, z), _nullspace_intersection(y, z))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_unitary_invariance_of_everything():
    rng = np.random.default_rng(8)
    d = 5
    for _ in range(20):
        u = random_unitary(rng, d)
        a = random_subspace(rng, d, 2)
        b = random_subspace(rng, d, 2)
        ua = u @ a
        ub = u @ b
        assert _smallest_sines(a, b) == pytest.approx(_smallest_sines(ua, ub), abs=1e-10)
        assert hausdorff_subspace_dist(a, b) == pytest.approx(
            hausdorff_subspace_dist(ua, ub), abs=1e-10
        )
        m = random_sl(rng, d)
        assert np.allclose(matrix_gaps(m), matrix_gaps(u @ m @ u.conj().T), atol=1e-10, rtol=0)


# --- product SVD ----------------------------------------------------------------


def test_jacobi_svd_matches_lapack():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u, s, vh = jacobi_svd(a)
        assert np.allclose(u @ np.diag(s) @ vh, a, atol=1e-12)
        assert np.allclose(s, np.linalg.svd(a, compute_uv=False), rtol=1e-12)


def _one_matrix_jacobi(x):
    """Textbook one-sided Jacobi on one matrix, pair by pair in Python, in
    the input's dtype.  It holds each column of (a; v) as a row, laid out
    as the engine lays it out (contiguous when real, every other slot when
    complex), so that its dots call the same BLAS kernel and add their
    terms in the same order; and it divides by a real number as NumPy
    divides a complex array by a real one, through the reciprocal."""
    x = np.asarray(x)
    n, m = x.shape
    step = 2 if np.iscomplexobj(x) else 1
    rows = np.zeros((m, step * (n + m)), x.dtype)[:, ::step]
    rows[:, :n], rows[:, n:] = x.T, np.eye(m)
    for _ in range(40):
        off = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                ap, aq = rows[p, :n], rows[q, :n]
                app = np.vdot(ap, ap).real
                aqq = np.vdot(aq, aq).real
                apq = np.vdot(ap, aq)
                scale = math.sqrt(app) * math.sqrt(aqq)
                if scale == 0.0 or abs(apq) <= 1e-15 * scale:
                    continue
                off = max(off, abs(apq) / scale)
                phase = apq * (1.0 / abs(apq))
                zeta = (aqq - app) / (2.0 * abs(apq))
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                cp, cq = rows[p].copy(), rows[q].copy()
                rows[p] = cs * cp - sn * np.conj(phase) * cq
                rows[q] = sn * phase * cp + cs * cq
        if off == 0.0:
            break
    s = np.sqrt(sum((c.conj() * c).real for c in rows[:, :n].T))  # term after term
    order = np.argsort(s)[::-1]
    s, rows = s[order], rows[order]
    u = (rows[:, :n] * (1.0 / np.where(s > 0, s, 1.0))[:, None]).T
    for j in np.nonzero(s == 0)[0]:  # a zero column gets a unit vector
        u[:, j] = 0.0
        u[min(j, n - 1), j] = 1.0
    return u, s, rows[:, n:].conj()


def _hard_stack(rng, d, real):
    """40 matrices the way absorb hands them over, plus the corner cases."""
    stack = rng.standard_normal((40, d, d))
    if not real:
        stack = stack + 1j * rng.standard_normal((40, d, d))
    stack *= np.exp(rng.uniform(-30.0, 0.0, (40, d, 1)))  # graded rows, as in absorb
    stack[0] = np.diag(np.resize([2.0, 1.0], d))  # equal values, no rotation
    stack[1][:, ::2] = 0.0  # zero columns, e.g. values flushed past the 372-nat spread
    stack[2] = np.eye(d)[rng.permutation(d)] * (1.0 if real else 1j)  # all values equal
    return stack


def test_jacobi_svd_reproduces_one_matrix_jacobi_bitwise():
    # the stacked engine performs each matrix's operations exactly as the
    # one-matrix loop does, so flags keep every bit, ties included
    rng = np.random.default_rng(13)
    for d in (2, 3, 4, 6, 8):
        for real in (False, True):
            stack = _hard_stack(rng, d, real)
            u, s, vh = jacobi_svd(stack)
            for i, a in enumerate(stack):
                uo, so, vho = _one_matrix_jacobi(a)
                assert uo.dtype == u.dtype == vh.dtype == stack.dtype
                assert np.array_equal(uo, u[i]) and np.array_equal(so, s[i]) and np.array_equal(vho, vh[i])


def test_jacobi_svd_real_stack_equals_its_complex_cast():
    # real arithmetic changes no bit: the float64 result equals, value for
    # value, the complex128 result of the same matrices cast to complex
    rng = np.random.default_rng(16)
    for d in (2, 3, 4, 6, 7, 8):
        stack = _hard_stack(rng, d, real=True)
        u, s, vh = jacobi_svd(stack)
        uc, sc, vhc = jacobi_svd(stack.astype(complex))
        assert u.dtype == vh.dtype == np.float64 and uc.dtype == vhc.dtype == np.complex128
        assert np.array_equal(u, uc) and np.array_equal(s, sc) and np.array_equal(vh, vhc)


def test_jacobi_svd_stack_equals_one_by_one():
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
    stack[2] = np.diag([3.0, 1.0, 2.0, 0.5])  # needs no rotation at all
    stack[4][:, 1] = 0.0  # a zero column
    u, s, vh = jacobi_svd(stack)
    for i, a in enumerate(stack):
        ui, si, vhi = jacobi_svd(a)
        assert np.array_equal(ui, u[i]) and np.array_equal(si, s[i]) and np.array_equal(vhi, vh[i])
        assert np.allclose(ui @ np.diag(si) @ vhi, a, atol=1e-12)
    assert np.array_equal(s[2], [3.0, 2.0, 1.0, 0.5])
    assert s[4][-1] == 0.0


def test_product_svd_matches_direct_product():
    rng = np.random.default_rng(10)
    factors = [random_sl(rng, 4) for _ in range(6)]
    acc = ProductSVD(4)
    direct = np.eye(4, dtype=complex)
    for f in factors:
        acc.absorb(f)
        direct = direct @ f
    s = np.linalg.svd(direct, compute_uv=False)
    assert np.allclose(np.sort(acc.logs)[::-1], np.log(s), atol=1e-10, rtol=0)
    # reconstruction
    rebuilt = acc.u @ np.diag(np.exp(acc.logs)) @ acc.vh
    assert np.allclose(rebuilt, direct, atol=1e-8 * np.linalg.norm(direct))


def test_product_svd_reciprocal_symmetry():
    # for det-1 factors, log singular values of the inverse-order inverse
    # product are the reversed negatives: a relative-accuracy stress test
    rng = np.random.default_rng(11)
    factors = [random_sl(rng, 3, scale=2.0) for _ in range(12)]
    fwd = ProductSVD(3)
    for f in factors:
        fwd.absorb(f)
    bwd = ProductSVD(3)
    for f in reversed(factors):
        bwd.absorb(np.linalg.inv(f))
    assert np.allclose(log_sigma(fwd), -log_sigma(bwd)[::-1], atol=1e-10, rtol=0)


def test_product_svd_real_factors_equal_complex_casts():
    # a float64 state fed real factors holds, after every absorb, the values
    # a complex128 state holds when fed the same factors cast to complex:
    # one factor per product, then one factor shared by the stack
    rng = np.random.default_rng(17)
    for d, batch in ((2, ()), (3, (6,)), (4, (5,)), (6, (3,))):
        real, cplx = ProductSVD(d, batch, float), ProductSVD(d, batch)
        for step in range(10):
            f = rng.standard_normal(batch + (d, d) if step % 2 else (d, d))
            f *= np.exp(rng.uniform(-3.0, 3.0, f.shape[:-2] + (1, d)))
            real.absorb(f)
            cplx.absorb(f.astype(complex))
            assert real.u.dtype == real.vh.dtype == np.float64
            assert np.array_equal(real.logs, cplx.logs)
            assert np.array_equal(real.u, cplx.u) and np.array_equal(real.vh, cplx.vh)


def test_engine_past_underflow_is_silent_in_both_dtypes():
    # a column pair whose dot is below the normal range: the reciprocal of
    # its magnitude overflows, so the rotation fills two columns with inf
    # (real) or nan (complex).  Neither dtype warns, and the same values
    # are non-finite, so callers see the same non-finite gaps
    x = np.array([[1e-154, 1e-160], [0.0, 1e-160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        real, cplx = (ProductSVD(2, (), dt).absorb(x.astype(dt)).absorb(np.eye(2, dtype=dt)) for dt in (float, complex))
    assert np.array_equal(np.isfinite(real.logs), np.isfinite(cplx.logs))
    assert np.array_equal(np.isfinite(real.gaps()), np.isfinite(cplx.gaps()))
