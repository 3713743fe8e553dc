import math

import numpy as np
import pytest

from dixtrace import golden
from dixtrace.errors import ConfigError
from dixtrace.geometry import Geometry
from dixtrace.summation import dyadic_grid, partial_sums
from dixtrace.symbol import parse_symbol
from dixtrace.trace import dixmier_estimate, log_model_fit


def test_square_sum_against_brute_force():
    for n in range(60):
        assert golden.su2_square_sum(n) == sum((k + 1) ** 2 for k in range(n + 1))


def test_count_cubic_samples():
    assert golden.su2_count_cubic(0) == pytest.approx(1.0 / 6.0)
    assert golden.su2_count_cubic(9) == pytest.approx(10 * 226 / 6.0)
    # same leading growth as the exact dimension count
    big = 10 ** 6
    ratio = golden.su2_count_cubic(big) / golden.su2_square_sum(big)
    assert ratio == pytest.approx(1.0, rel=1e-5)


def test_su3_dim_sum_closed_form():
    for n in range(40):
        assert golden.su3_dim_sum(n) == golden.su3_dim_sum_direct(n)
    assert golden.su3_dim_sum(1) == 7  # points (0,0), (1,0), (0,1)


def test_bessel_terms_first_values():
    # k = 1 term alone: c * 1 * 4^(-3/2) = c / 8
    assert golden.su2_bessel_terms(0, coefficient=1.0) == pytest.approx(1 / 8)
    two = 1 / 8 + 4.0 * 7.0 ** -1.5
    assert golden.su2_bessel_terms(1, coefficient=1.0) == pytest.approx(two)


def test_coefficient_conventions_differ_by_64():
    for n in (10, 100, 10_000):
        small = golden.su2_bessel_count_ratio(n)
        large = golden.su2_bessel_count_ratio(n, coefficient=golden.SU2_DIRECT_COEFFICIENT)
        assert large == pytest.approx(64.0 * small, rel=1e-13)


def test_printed_ratio_drifts_toward_limit():
    # slow logarithmic climb from below toward 1/24; finite evaluations sit
    # near 0.0393 for a wide range of N
    r3 = golden.su2_bessel_count_ratio(10 ** 3)
    r5 = golden.su2_bessel_count_ratio(10 ** 5)
    assert r3 < r5 < 1.0 / 24.0
    assert r5 == pytest.approx(0.0393, abs=2e-3)


def test_domain_checks():
    with pytest.raises(ConfigError):
        golden.su2_square_sum(-1)
    with pytest.raises(ConfigError):
        golden.su2_bessel_count_ratio(1)
    with pytest.raises(ConfigError):
        golden.su3_dim_sum(-3)


def test_count_log_ratio_agrees_with_dim_normalization():
    # counts on the circle grow like 2N, so log-count and dim*log-N
    # normalizations share the same limit
    g = Geometry.torus(1)
    series = partial_sums(g, parse_symbol("bessel:1:2"), dyadic_grid(1e6, 4))
    f = series.sums / np.log(series.counts)
    tau_count = log_model_fit(series.cutoffs, f)[0]
    tau_dim = dixmier_estimate(series).value
    assert tau_count == pytest.approx(tau_dim, rel=0.02)
