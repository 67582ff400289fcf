"""format_g against Python's own %-formatting, byte for byte, at the CLI's two precisions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixorder import cli
from mixorder.gformat import format_g
from mixorder.mixture import _BLOCK

PRECISIONS = [15, 17]


def reference(values, precision, separators="\n"):
    fmt = f"%.{precision}g"
    return "".join(fmt % v + separators[i % len(separators)] for i, v in enumerate(values.tolist())).encode()


def assert_same(values, precision, separators="\n"):
    values = np.asarray(values, dtype=np.float64)
    assert format_g(values, precision, separators) == reference(values, precision, separators)


@pytest.mark.parametrize("precision", PRECISIONS)
@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_raw_bit_patterns(precision, bits):
    # every double occurs: subnormals, both zeros, nan payloads and both infinities
    assert_same(np.array(bits, dtype=np.uint64).view(np.float64), precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_specials_and_wide_exponents(precision):
    rng = np.random.default_rng(precision)
    values = rng.standard_normal(20000) * 10.0 ** rng.integers(-300, 300, size=20000)
    specials = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 1e-280, 1e280, np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf)]
    values[:len(specials)] = specials
    assert_same(values, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_random_bit_patterns_and_dyadic_rationals(precision):
    rng = np.random.default_rng(7 + precision)
    assert_same(rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64), precision)
    assert_same(rng.integers(-2**40, 2**40, size=20000) / 2.0 ** rng.integers(0, 60, size=20000), precision)


def test_exact_ties_round_half_even():
    # n5 with n of 15 digits is exactly halfway at 15 digits: even n stays, odd n goes up
    assert format_g(np.array([1000000000000025.0, 1000000000000035.0]), 15, "\n") == (
        b"1.00000000000002e+15\n1.00000000000004e+15\n"
    )
    assert format_g(np.array([100000000000002.5, 100000000000003.5]), 15, "\n") == (
        b"100000000000002\n100000000000004\n"
    )
    # n.25 and n.75 with n of 16 digits are exactly halfway at 17 digits
    assert format_g(np.array([1e15 + 0.25, 1e15 + 0.75]), 17, "\n") == (
        b"1000000000000000.2\n1000000000000000.8\n"
    )
    rng = np.random.default_rng(3)
    n = rng.integers(10**14, 9 * 10**14, size=4000)
    assert_same(10.0 * n + 5.0, 15)
    assert_same(n + 0.5, 15)
    n = rng.integers(10**15, 2 * 10**15, size=4000)
    assert_same(np.concatenate([n + 0.25, n + 0.75, -(n + 0.25)]), 17)


def test_rounding_up_to_the_next_power_of_ten_takes_its_exponent():
    # the double below 1e-4 has exponent -5 but prints in fixed notation, as 1e-4 does
    assert format_g(np.nextafter(np.array([1e-4, 1.0, 1e15]), 0), 15, "\n") == b"0.0001\n1\n1e+15\n"
    powers = 10.0 ** np.arange(-30, 31)
    below = [powers * (1.0 - j * 2.0**-53) for j in range(1, 6)]
    for precision in PRECISIONS:
        assert_same(np.concatenate([powers, *below, -powers]), precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_both_sides_of_the_exponent_switch(precision):
    rng = np.random.default_rng(precision)
    mantissas = np.concatenate([rng.uniform(1.0, 10.0, 500), [1.0, 1.5, 9.5, 9.999]])
    for x in (-5, -4, precision - 1, precision):
        assert_same(np.concatenate([mantissas, -mantissas]) * 10.0**x, precision)


def test_rows_straddling_block_boundaries():
    # the CLI formats whole rows, at most _BLOCK values to a chunk: 2,048 rows of a
    # 4-column curve table, 2,730 of 3 columns, 8,192 of a sample
    specials = [np.nan, -0.0, 1e300]  # values that go to '%'
    for width in (1, 3, 4):
        per_chunk = _BLOCK // width
        rows = 2 * per_chunk + 5
        rng = np.random.default_rng(11 + width)
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, size=rows) for _ in range(width)]
        for at in (per_chunk - 1, per_chunk, 2 * per_chunk - 1, 2 * per_chunk):  # each side of each boundary
            for j, column in enumerate(columns):
                column[at] = specials[(at + j) % 3]
        chunks = list(cli._format_rows(columns, 15))
        assert [chunk.count(b"\n") for chunk in chunks] == [per_chunk, per_chunk, 5]
        for chunk in chunks:
            assert chunk.endswith(b"\n") and chunk.count(b",") + chunk.count(b"\n") <= _BLOCK
        row = ",".join(["%.15g"] * width) + "\n"
        expected = "".join(row % values for values in zip(*(c.tolist() for c in columns)))
        assert b"".join(chunks) == expected.encode()
