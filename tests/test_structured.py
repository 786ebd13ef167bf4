import math
import warnings

import numpy as np
import pytest
from conftest import random_complex, svd_norm

from opnorm.core import INF, dual_exponent, vec_norm
from opnorm.estimator import analyze, ascent_lower_bound, certified_bound
from opnorm.exact import norm_two
from opnorm.interp import is_log_affine, upper_bound
from opnorm.structured import (
    Circulant,
    HankelMod,
    TensorRankOne,
    UnitaryPermutation,
    as_circulant,
    as_hankel,
    as_tensor_rank_one,
    as_unitary_permutation,
    block_grid_bound,
    circulant_two_norm,
    classify_circulant_la,
    column_embed,
    densify,
    direct_sum,
    doubly_balanced_norm,
    hankel_factor,
    magic3,
    magic4,
    random_unitary_permutation,
    row_embed,
    split_direct_sum,
    tensor_norm,
)


def test_circulant_dense_layout():
    C = densify(Circulant([1, 2, 3]))
    assert np.array_equal(C, np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]], dtype=complex))


def test_hankel_dense_layout():
    H = densify(HankelMod([1, 2, 3]))
    assert np.array_equal(H, np.array([[1, 2, 3], [2, 3, 1], [3, 1, 2]], dtype=complex))


def test_unitary_permutation_dense():
    S = UnitaryPermutation((1, 0), np.array([1j, -1.0]))
    assert np.array_equal(densify(S), np.array([[0, 1j], [-1, 0]], dtype=complex))
    with pytest.raises(ValueError):
        UnitaryPermutation((0, 0), np.ones(2))  # not a permutation
    with pytest.raises(ValueError):
        UnitaryPermutation((0, 1), np.array([1.0, 0.5]))  # off-modulus phase


def test_recognizers_round_trip():
    rng = np.random.default_rng(6)
    c = random_complex(rng, 5)
    assert np.array_equal(as_circulant(densify(Circulant(c))).coeffs, np.asarray(c, dtype=complex))
    assert np.array_equal(as_hankel(densify(HankelMod(c))).coeffs, np.asarray(c, dtype=complex))
    S = random_unitary_permutation(6, seed=1)
    back = as_unitary_permutation(densify(S))
    assert back is not None and back.sigma == S.sigma


def test_recognizers_reject_perturbations():
    M = densify(Circulant([1.0, 2.0, 3.0])).copy()
    M[2, 1] += 1e-6
    assert as_circulant(M) is None
    H = densify(HankelMod([1.0, 2.0, 3.0])).copy()
    H[0, 2] -= 1e-6
    assert as_hankel(H) is None
    S = densify(random_unitary_permutation(4, seed=2)).copy()
    S[S != 0] *= 1.001
    assert as_unitary_permutation(S) is None
    assert as_circulant(np.ones((2, 3))) is None


def test_tensor_dense_and_recognizer():
    rng = np.random.default_rng(9)
    a, b = random_complex(rng, 3), random_complex(rng, 3)
    core = random_complex(rng, 2, 2)
    t = TensorRankOne(a, b, core)
    M = densify(t)
    assert M.shape == (6, 6)
    assert np.array_equal(M, np.kron(np.outer(a, np.conj(b)), core))
    found = as_tensor_rank_one(M)
    assert found is not None
    assert np.allclose(densify(found), M, rtol=1e-12, atol=1e-12)


def test_tensor_recognizer_rejects():
    rng = np.random.default_rng(10)
    assert as_tensor_rank_one(random_complex(rng, 4, 4)) is None  # generic
    assert as_tensor_rank_one(np.zeros((4, 4))) is None


def test_tensor_rank_one_scalar_blocks():
    # a rank-one matrix is a block tensor with 1x1 core
    u, v = np.array([1.0, 2.0]), np.array([1.0, -1.0])
    t = as_tensor_rank_one(np.outer(u, v))
    assert t is not None and t.core.shape == (1, 1)


def test_doubly_balanced():
    assert doubly_balanced_norm(magic3()) == pytest.approx(15.0, rel=1e-15)
    assert doubly_balanced_norm(magic4()) == pytest.approx(34.0, rel=1e-15)
    assert doubly_balanced_norm([[1, 2], [3, 4]]) is None
    assert doubly_balanced_norm([[1, -1], [-1, 1]]) is None  # negatives
    assert doubly_balanced_norm(np.zeros((2, 2))) == 0.0
    with pytest.raises(ValueError):
        doubly_balanced_norm(np.ones((2, 3)))


def test_balanced_hankel_layout_certifies_as_its_circulant_factor():
    # a nonnegative cyclic Hankel layout holds its circulant factor's rows in
    # another order, and both are balanced: the mean row sum must not depend
    # on that order
    def key(b):
        return b.lower.hex(), b.upper.hex(), b.lower_provenance, b.upper_provenance

    for s in range(300):
        rng = np.random.default_rng(s)
        h = HankelMod(np.abs(rng.standard_normal(3 + s % 14)))
        H, C = densify(h), densify(hankel_factor(h)[1])
        assert analyze(H).rule == analyze(C).rule == "balanced"
        for p in (1, 1.5, 2, 3, INF):
            assert key(certified_bound(H, p)) == key(certified_bound(C, p)), (s, p)


def test_magic_square_line_sums():
    for M, s in ((magic3(), 15.0), (magic4(), 34.0)):
        assert np.allclose(M.real.sum(axis=0), s) and np.allclose(M.real.sum(axis=1), s)


def test_circulant_two_norm_vs_eigen_oracle():
    rng = np.random.default_rng(14)
    for n in (2, 3, 5, 8):
        c = random_complex(rng, n)
        want = float(np.abs(np.linalg.eigvals(densify(Circulant(c)))).max())
        assert circulant_two_norm(Circulant(c)) == pytest.approx(want, rel=1e-9)


def test_classify_circulant_la_frozen_cases():
    w = classify_circulant_la(Circulant([1.0, 2.0, 3.0]))
    assert w and w.norm == 6.0 and w.omega == 1.0 and w.beta == 1.0
    w = classify_circulant_la(Circulant([1.0, 2.0, 0.0]))
    assert w and w.norm == 3.0 and w.omega == 1.0
    w = classify_circulant_la(Circulant([1.0, -1.0]))
    assert w and w.norm == 2.0 and w.omega == pytest.approx(-1.0)
    assert not classify_circulant_la(Circulant([1.0, 1j]))
    z = classify_circulant_la(Circulant([0.0, 0.0]))
    assert z and z.degenerate and z.norm == 0.0


def test_classify_circulant_la_subnormal_pivot():
    # the first nonzero coefficient is subnormal: the reciprocal of its
    # modulus overflows, so the witness must be found without forming it
    omega = np.exp(2j * np.pi / 3)
    c = Circulant(np.array([1e-320, omega, 2.0 * omega ** 2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = classify_circulant_la(c)
        rule = analyze(densify(c)).rule
    assert w.is_la and rule == "circulant-la"
    assert math.isfinite(w.beta.real) and math.isfinite(w.beta.imag)
    assert w.beta == pytest.approx(1.0, abs=1e-12)
    assert w.omega == pytest.approx(np.conj(omega), abs=1e-12)
    assert w.norm == pytest.approx(3.0, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = classify_circulant_la(Circulant([1e-320, 1.0, 1.0]))
    assert w.is_la and w.omega == 1.0 and w.beta == pytest.approx(1.0, abs=1e-15)


def test_classify_circulant_la_constructed_witnesses():
    rng = np.random.default_rng(21)
    for n in (3, 4, 6):
        k = int(rng.integers(n))
        omega = np.exp(-2j * np.pi * k / n)
        beta = np.exp(1j * rng.uniform(0, 2 * np.pi))
        mods = rng.uniform(0.1, 2.0, n)
        coeffs = beta * mods * omega ** np.arange(n)  # aligned by construction
        w = classify_circulant_la(Circulant(coeffs))
        assert w.is_la and w.norm == pytest.approx(mods.sum(), rel=1e-12)
        # recovered witness satisfies the alignment identity
        resid = np.abs(coeffs * w.omega ** np.arange(n) - w.beta * np.abs(coeffs)).max()
        assert resid <= 1e-9 * mods.max()


def test_hankel_factorization_exact():
    rng = np.random.default_rng(33)
    for n in (2, 3, 4, 7):
        h = HankelMod(random_complex(rng, n))
        perm, circ = hankel_factor(h)
        assert np.array_equal(densify(h), densify(perm) @ densify(circ))
    # frozen 3x3 flip
    perm, _ = hankel_factor(HankelMod([1.0, 2.0, 3.0]))
    assert np.array_equal(densify(perm).real, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))


def test_direct_sum_and_split_round_trip():
    rng = np.random.default_rng(41)
    parts = [random_complex(rng, 2, 2), random_complex(rng, 3, 3)]
    M = direct_sum(parts)
    assert M.shape == (5, 5)
    back = split_direct_sum(M)
    assert len(back) == 2
    assert np.array_equal(back[0], np.asarray(parts[0], dtype=complex))
    assert np.array_equal(back[1], np.asarray(parts[1], dtype=complex))
    assert len(split_direct_sum(random_complex(rng, 4, 4))) == 1


def test_direct_sum_certifies_the_max_over_its_parts():
    # the norm of a direct sum is the max over its parts, point values and
    # intervals alike
    rng = np.random.default_rng(43)
    for p in (1.0, 1.5, 3.0, INF):
        b = certified_bound(direct_sum([magic3(), magic4(), np.eye(2)]), p)
        assert (b.lower, b.upper) == (34.0, 34.0)
        parts = [magic3(), random_complex(rng, 3, 3), 0.5 * random_complex(rng, 2, 2)]
        b = certified_bound(direct_sum(parts), p)
        sub = [certified_bound(P, p) for P in parts]
        assert b.lower == max(s.lower for s in sub)
        assert b.upper == max(s.upper for s in sub)


def test_direct_sum_with_zero_block_keeps_the_norm():
    rng = np.random.default_rng(44)
    A = random_complex(rng, 3, 3)
    P = direct_sum([A, np.zeros((2, 2))])
    assert P.shape == (5, 5)
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        assert certified_bound(P, p) == certified_bound(A, p)


def test_block_bounds_dominate_norm():
    rng = np.random.default_rng(47)
    blocks = [[random_complex(rng, 2, 2) for _ in range(2)] for _ in range(2)]
    M = np.block(blocks)
    grid = [[svd_norm(blocks[i][j]) for j in range(2)] for i in range(2)]
    lo = ascent_lower_bound(M, 2).value
    assert block_grid_bound(grid, 2) >= lo * (1 - 1e-9)
    # one block column combines its block norms in l^p, one block row in l^q
    v = rng.uniform(0.0, 3.0, 4)
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        assert block_grid_bound(v[:, None], p) == vec_norm(v, p)
        assert block_grid_bound(v[None, :], p) == vec_norm(v, dual_exponent(p))
    with pytest.raises(ValueError):
        block_grid_bound([[1.0, -1.0]], 2)


def test_tensor_rank_one_needs_proportional_blocks():
    core = np.array([[1.0, 2.0], [0.0, 1.0]])
    # first block column: core, 2 core, (1+1j) core
    M = np.kron(np.outer([1.0, 2.0, 1 + 1j], [1.0, 0.5, -1.0]), core)
    t = as_tensor_rank_one(M)
    assert t is not None and np.allclose(densify(t), M, rtol=0.0, atol=1e-12)
    M[2:4, 0:2] = core + np.eye(2) * 1e-3
    assert as_tensor_rank_one(M) is None


def test_embeds():
    xi = np.array([1.0, 2j])
    col = column_embed(xi)
    assert np.array_equal(col, np.array([[1, 0], [2j, 0]], dtype=complex))
    row = row_embed(xi)
    assert np.array_equal(row, np.array([[1, -2j], [0, 0]], dtype=complex))
    # the tensor rule certifies ||xi||_p for the column embedding and
    # ||xi||_q for the row embedding, exactly
    rng = np.random.default_rng(45)
    for x in [xi] + [random_complex(rng, n) for n in range(2, 9)]:
        for E, r in ((column_embed(x), lambda p: p), (row_embed(x), dual_exponent)):
            assert analyze(E).rule == "tensor"
            for p in (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, INF):
                b = certified_bound(E, p)
                assert b.lower == b.upper
                assert b.upper == pytest.approx(vec_norm(x, r(p)), rel=1e-12)


def test_embed_norms_match_operator_norms():
    xi = np.array([1.0, 2.0, -1.5])
    for p in (1.5, 3.0):
        for E, want in ((column_embed(xi), vec_norm(xi, p)),
                        (row_embed(xi), vec_norm(xi, dual_exponent(p)))):
            lo = ascent_lower_bound(E, p).value
            up = upper_bound(E, p).value
            assert lo <= want * (1 + 1e-9) and want <= up * (1 + 1e-9)
            assert lo == pytest.approx(want, rel=1e-6)


def test_embeddings_are_log_affine_iff_moduli_agree():
    # an embedding is log-affine exactly when its nonzero entries share one
    # modulus; the zero vector is degenerately LA
    for embed in (column_embed, row_embed):
        assert is_log_affine(embed([1.0, 1j, -1.0]))
        assert is_log_affine(embed([2.0, 0.0, -2j]))
        assert not is_log_affine(embed([1.0, 2.0]))
        zero = is_log_affine(embed(np.zeros(3)))
        assert zero and zero.degenerate


def test_tensor_norm_and_la():
    a = np.array([1.0, -1.0])
    b = np.array([1.0, 2.0])
    core = np.array([[5.0]])
    t = TensorRankOne(a, b, core)
    for p in (1.0, 1.7, 2.0, INF):
        want = vec_norm(a, p) * vec_norm(b, dual_exponent(p)) * 5.0
        assert tensor_norm(t, p, 5.0) == pytest.approx(want, rel=1e-15)
    # LA holds for the block tensor iff both factors and the core are LA
    assert not is_log_affine(densify(t))  # b has unequal moduli
    a2, b2 = np.array([1.0, 1j]), np.array([1.0, -1.0])
    assert is_log_affine(densify(TensorRankOne(a2, b2, core)))
    assert is_log_affine(densify(TensorRankOne(a2, b2, [[1.0, 1.0], [0.0, 0.0]])))
    assert not is_log_affine([[1.0, 2.0], [3.0, 4.0]])
    assert not is_log_affine(densify(TensorRankOne(a2, b2, [[1.0, 2.0], [3.0, 4.0]])))


@pytest.mark.parametrize("seed", [-1, 2.5, "3", True, None])
def test_random_unitary_permutation_rejects_bad_seeds(seed):
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
        random_unitary_permutation(4, seed=seed)


def test_random_unitary_permutation_deterministic():
    A = densify(random_unitary_permutation(5, seed=7))
    B = densify(random_unitary_permutation(5, seed=7))
    assert np.array_equal(A, B)
    assert norm_two(A) == pytest.approx(1.0, rel=1e-12)
