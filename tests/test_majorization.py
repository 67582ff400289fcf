import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixorder import (
    ParameterError,
    ParameterMatrix,
    ShapeError,
    TTransform,
    apply_chain,
    apply_t_transform,
    in_space,
    majorizes,
    recover_t_transform_2x2,
    row_majorizes,
    same_structure,
    verify_chain_witness,
    weakly_supermajorizes,
)

# the six bundled transform scenarios: (A, chain, expected B)
EX1 = (
    ParameterMatrix((0.6, 0.4), (0.3, 0.4)),
    [TTransform(0.4, (1, 0))],
    [[0.48, 0.52], [0.36, 0.34]],
)
EX2 = (
    ParameterMatrix((0.2, 0.3, 0.5), (0.5, 0.3, 0.1)),
    [TTransform(0.4, (0, 2, 1)), TTransform(0.2, (0, 2, 1))],
    [[0.2, 0.388, 0.412], [0.5, 0.212, 0.188]],
)
EX3 = (
    ParameterMatrix((0.1, 0.4, 0.5), (0.7, 0.5, 0.3)),
    [TTransform(0.3, (0, 2, 1)), TTransform(0.4, (1, 0, 2)), TTransform(0.1, (2, 1, 0))],
    [[0.4192, 0.248, 0.3328], [0.4456, 0.564, 0.4904]],
)
EX4 = (
    ParameterMatrix((0.2, 0.8), (0.5, 0.25)),
    [TTransform(0.3, (1, 0))],
    [[0.62, 0.38], [0.325, 0.425]],
)
EX5 = (
    ParameterMatrix((0.5, 0.4, 0.1), (3.0, 4.0, 5.0)),
    [TTransform(0.4, (0, 2, 1)), TTransform(0.2, (0, 2, 1))],
    [[0.5, 0.268, 0.232], [3.0, 4.44, 4.56]],
)
EX6 = (
    ParameterMatrix((0.3, 0.7), (0.7, 0.3)),
    [TTransform(0.9, (1, 0))],
    [[0.34, 0.66], [0.66, 0.34]],
)


class TestVectorOrders:
    def test_extreme_point_majorizes_mean(self):
        assert majorizes((1.0, 0.0), (0.5, 0.5))

    def test_antisymmetry(self):
        assert not majorizes((0.5, 0.5), (1.0, 0.0))

    def test_reflexive(self):
        v = (0.2, 0.5, 0.3)
        assert majorizes(v, v)
        assert weakly_supermajorizes(v, v)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            majorizes((1.0, 2.0), (1.0, 2.0, 3.0))
        with pytest.raises(ShapeError):
            weakly_supermajorizes((1.0,), (1.0, 2.0))

    def test_weak_supermajorization_prefix_failure(self):
        # prefixes of (2,2,8,8,8): 2,4,12,20,28 vs (3,3,6,6,6): 3,6,12,18,24;
        # brute-force partial sums succeed up to j=3 and fail at j=4
        a = (2.0, 2.0, 8.0, 8.0, 8.0)
        b = (3.0, 3.0, 6.0, 6.0, 6.0)
        ca, cb = np.cumsum(sorted(a)), np.cumsum(sorted(b))
        assert list(ca <= cb) == [True, True, True, False, False]
        assert not weakly_supermajorizes(a, b)
        assert not weakly_supermajorizes(b, a)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6))
    def test_majorization_implies_weak_supermajorization(self, v):
        # averaging toward the mean is majorized by the original
        n = len(v)
        mixed = [0.5 * x + 0.5 * (sum(v) / n) for x in v]
        assert majorizes(v, mixed)
        assert weakly_supermajorizes(v, mixed)

    def test_transitive_on_averaging_chains(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            a = rng.uniform(0.1, 5.0, n)
            w1, w2 = rng.uniform(0.1, 0.9, 2)
            b = w1 * a + (1 - w1) * np.full(n, a.mean())
            c = w2 * b + (1 - w2) * np.full(n, b.mean())
            assert majorizes(a, b) and majorizes(b, c) and majorizes(a, c)


class TestTransforms:
    @pytest.mark.parametrize("a, chain, expected", [EX1, EX2, EX3, EX4, EX5, EX6])
    def test_chain_reproduces_reference_matrices(self, a, chain, expected):
        out = apply_chain(a, chain)
        assert np.max(np.abs(out.as_array() - np.array(expected))) <= 1e-12

    def test_identity_when_omega_one(self):
        a = EX1[0]
        out = apply_t_transform(a, TTransform(1.0, (1, 0)))
        assert np.allclose(out.as_array(), a.as_array(), rtol=0, atol=0)

    def test_empty_chain_is_identity(self):
        a = EX2[0]
        assert apply_chain(a, []) is a

    def test_row_sums_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            a = ParameterMatrix(tuple(rng.uniform(0.1, 5, n)), tuple(rng.uniform(0.1, 5, n)))
            chain = [
                TTransform(float(rng.uniform()), tuple(rng.permutation(n)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            out = apply_chain(a, chain)
            assert np.allclose(
                out.as_array().sum(axis=1), a.as_array().sum(axis=1), rtol=0, atol=1e-14
            )

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            apply_t_transform(EX1[0], TTransform(0.5, (0, 2, 1)))

    def test_omega_and_permutation_validated(self):
        with pytest.raises(ParameterError):
            TTransform(1.5, (1, 0))
        with pytest.raises(ParameterError):
            TTransform(0.5, (0, 0))

    def test_swap_constructor(self):
        t = TTransform.swap(0.4, n=3, i=1, j=2)
        assert t.permutation == (0, 2, 1)
        assert np.allclose(
            t.matrix(), [[1, 0, 0], [0, 0.4, 0.6], [0, 0.6, 0.4]], atol=1e-15
        )


class TestWitness:
    @pytest.mark.parametrize("bad", [0.0, -0.3, math.inf, math.nan])
    def test_entries_must_be_positive_reals(self, bad):
        with pytest.raises(ParameterError, match="entries must be positive reals"):
            ParameterMatrix((0.5, 0.5), (0.3, bad))

    def test_widths_must_match(self):
        with pytest.raises(ShapeError, match="matrix widths differ: 2 vs 3"):
            verify_chain_witness(EX1[0], ParameterMatrix((0.2, 0.3, 0.5), (1, 2, 3)), [])

    def test_reference_witness_true(self):
        a, chain, expected = EX1
        b = ParameterMatrix(tuple(expected[0]), tuple(expected[1]))
        assert verify_chain_witness(a, b, chain)

    def test_empty_chain_self_witness(self):
        a = EX1[0]
        assert verify_chain_witness(a, a, [])

    def test_wrong_omega_fails(self):
        a, _, expected = EX1
        b = ParameterMatrix(tuple(expected[0]), tuple(expected[1]))
        assert not verify_chain_witness(a, b, [TTransform(0.5, (1, 0))])


class TestImageBits:
    """B = A*T is formed on the floats, so no BLAS build moves its last bit."""

    @staticmethod
    def expected_row(row, omega, perm):
        # column j of T holds omega at row j and 1 - omega at the row i mapped to j
        src = {int(j): i for i, j in enumerate(perm)}
        return tuple(
            row[j] * (omega + (1.0 - omega)) if src[j] == j
            else omega * row[j] + (1.0 - omega) * row[src[j]]
            for j in range(len(row))
        )

    @pytest.mark.parametrize("fixed_point", [False, True])
    def test_entries_match_the_float_formula(self, fixed_point):
        rng = np.random.default_rng(2024 + fixed_point)
        for _ in range(400):
            n = int(rng.integers(2, 6))
            perm = tuple(int(i) for i in rng.permutation(n))
            while any(i == j for j, i in enumerate(perm)) != fixed_point:
                perm = tuple(int(i) for i in rng.permutation(n))
            top = tuple(float(v) for v in rng.dirichlet(np.ones(n)))
            bottom = tuple(float(v) for v in rng.uniform(0.05, 5.0, n))
            omega = float(rng.uniform())
            out = apply_t_transform(ParameterMatrix(top, bottom), TTransform(omega, perm))
            assert out.top_row == self.expected_row(top, omega, perm)
            assert out.bottom_row == self.expected_row(bottom, omega, perm)


class TestStructure:
    def test_same_structure_chain(self):
        assert same_structure(EX2[1])

    def test_mixed_structure_chain(self):
        assert not same_structure(EX3[1])

    def test_singleton(self):
        assert same_structure(EX1[1])

    def test_empty_chain_rejected(self):
        with pytest.raises(ParameterError):
            same_structure([])


class TestSpaces:
    def test_reference_memberships(self):
        assert in_space(EX1[0], "K")
        assert in_space(EX5[0], "K")

    def test_constant_bottom_row_in_both(self):
        m = ParameterMatrix((0.2, 0.8), (0.5, 0.5))
        assert in_space(m, "K") and in_space(m, "L")

    def test_similarly_ordered_rows_in_L(self):
        m = ParameterMatrix((0.2, 0.8), (0.25, 0.5))
        assert in_space(m, "L") and not in_space(m, "K")

    def test_bad_space_name(self):
        with pytest.raises(ParameterError):
            in_space(EX1[0], "M")


class TestRowMajorization:
    def test_reference_pair(self):
        a, chain, expected = EX1
        b = ParameterMatrix(tuple(expected[0]), tuple(expected[1]))
        assert row_majorizes(a, b)

    def test_reflexive(self):
        assert row_majorizes(EX1[0], EX1[0])

    def test_widths_must_match(self):
        with pytest.raises(ShapeError, match="matrix widths differ: 3 vs 2"):
            row_majorizes(ParameterMatrix((0.2, 0.3, 0.5), (1, 2, 3)), EX1[0])

    def test_swapped_rows_generally_fail(self):
        # exchanging B's two rows breaks the total-sum condition row-wise
        a = EX1[0]
        b_swapped = ParameterMatrix((0.36, 0.34), (0.48, 0.52))
        assert not row_majorizes(a, b_swapped)
        # so does a bottom row more spread out than A's
        wider = ParameterMatrix((0.48, 0.52), (0.25, 0.45))
        assert not row_majorizes(a, wider)

    def test_same_structure_chains_are_row_majorized(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            a = ParameterMatrix(tuple(rng.uniform(0.1, 5, n)), tuple(rng.uniform(0.1, 5, n)))
            perm = tuple(rng.permutation(n))
            chain = [
                TTransform(float(rng.uniform()), perm)
                for _ in range(int(rng.integers(1, 4)))
            ]
            assert same_structure(chain)
            assert row_majorizes(a, apply_chain(a, chain))


class TestRecovery:
    def test_reference_omegas(self):
        for (a, chain, expected), omega in ((EX1, 0.4), (EX6, 0.9)):
            b = ParameterMatrix(tuple(expected[0]), tuple(expected[1]))
            t = recover_t_transform_2x2(a, b)
            assert t is not None
            assert t.omega == pytest.approx(omega, abs=1e-12)

    def test_identity_recovery(self):
        a = EX1[0]
        t = recover_t_transform_2x2(a, a)
        assert t is not None and t.omega == pytest.approx(1.0, abs=1e-12)

    def test_needs_2x2(self):
        wide = ParameterMatrix((0.2, 0.3, 0.5), (1, 2, 3))
        with pytest.raises(ShapeError, match="2x2 matrices only"):
            recover_t_transform_2x2(wide, wide)

    def test_constant_rows_give_the_identity(self):
        # every omega maps constant rows to themselves; omega = 1 is the one returned
        a = ParameterMatrix((0.5, 0.5), (0.3, 0.3))
        assert recover_t_transform_2x2(a, a) == TTransform(1.0, (1, 0))

    def test_unreachable_matrix(self):
        a = EX1[0]
        b = ParameterMatrix((0.9, 0.1), (0.36, 0.34))  # top row not a mix of A's
        assert recover_t_transform_2x2(a, b) is None
