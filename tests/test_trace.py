import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dixtrace.errors import ConfigError, FitError
from dixtrace.geometry import Geometry
from dixtrace.summation import PartialSumSeries, dyadic_grid, partial_sums
from dixtrace.symbol import RadialWeight, SymbolSum, parse_symbol
from dixtrace.trace import (TraceEstimate, density_integral_from_samples,
                            dixmier_estimate, log_model_fit, quasinorm,
                            residue_factored)


def torus_series(symbol, nmax=1e5, ppo=4):
    return partial_sums(Geometry.torus(1), parse_symbol(symbol),
                        dyadic_grid(nmax, ppo))


def test_log_model_fit_recovers_synthetic_coefficients():
    cutoffs = dyadic_grid(1e6, 4)
    L = np.log(cutoffs)
    f = 5.0 + 3.0 / L + 2.0 / L ** 2
    tau, c1, c2, rms = log_model_fit(cutoffs, f)
    assert tau == pytest.approx(5.0, abs=1e-9)
    assert c1 == pytest.approx(3.0, abs=1e-7)
    assert c2 == pytest.approx(2.0, abs=1e-6)
    assert rms < 1e-10


def test_log_model_fit_needs_four_points():
    with pytest.raises(FitError):
        log_model_fit(np.array([2.0, 4.0, 8.0]), np.array([1.0, 1.0, 1.0]))


def test_verdict_convergent():
    est = dixmier_estimate(torus_series("bessel:1:2"))
    assert est.verdict == "convergent"
    assert est.value == pytest.approx(2.0, rel=0.01)


def test_verdict_divergent():
    est = dixmier_estimate(torus_series("radial:0", nmax=1e4))
    assert est.verdict == "divergent"


def test_verdict_vanishing():
    est = dixmier_estimate(torus_series("radial:2", nmax=1e6))
    assert est.verdict == "vanishing"
    assert abs(est.value) < 1e-2


def test_all_zero_series_is_vanishing():
    cutoffs = dyadic_grid(1e4, 4)
    series = PartialSumSeries(cutoffs, np.zeros(len(cutoffs)),
                              np.ones(len(cutoffs)), dim=1, picture="manifold")
    est = dixmier_estimate(series)
    assert est.verdict == "vanishing"
    assert est.value == 0.0


def test_dixmier_estimate_reads_a_boundary_series_through_its_dim():
    # an index series carries dim 1, so the one estimator reads S(L)/log L
    cutoffs = dyadic_grid(100, 2)
    series = PartialSumSeries(cutoffs, np.log(cutoffs), cutoffs,
                              dim=1, picture="boundary-index")
    np.testing.assert_array_equal(series.normalized(), series.sums / np.log(cutoffs))
    assert dixmier_estimate(series).value == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ConfigError, match="dim 1"):
        PartialSumSeries(cutoffs, np.log(cutoffs), cutoffs,
                         dim=2, picture="boundary-index")


def test_homogeneity_through_scale_series():
    series = torus_series("bessel:1:2", nmax=1e4)
    est = dixmier_estimate(series)
    est3 = dixmier_estimate(replace(series, sums=3.0 * series.sums))
    assert est3.value == pytest.approx(3.0 * est.value, rel=1e-12)


def test_estimate_json_round_trip():
    # the estimate record the CLI writes carries every field bit for bit
    est = dixmier_estimate(torus_series("bessel:1:2", nmax=1e4))
    doc = json.loads(json.dumps(est.to_json_dict()))
    assert doc.pop("schema_version") == 1
    assert TraceEstimate(**{**doc, "fit_coeffs": tuple(doc["fit_coeffs"])}) == est


# ---------------------------------------------------------------------------
# Quasi-norms
# ---------------------------------------------------------------------------

def test_quasinorm_domain():
    series = torus_series("radial:1", nmax=1e4)
    for bad in (0.5, 1.0, -2.0, math.inf):
        with pytest.raises(ValueError):
            quasinorm(series, bad)


def test_quasinorm_stable_for_matching_decay():
    series = torus_series("modulus:0.5", nmax=1e6)
    q = quasinorm(series, 2.0)
    assert q.stable
    assert q.gamma > 0


def test_quasinorm_unstable_for_constant_symbol():
    q = quasinorm(torus_series("radial:0", nmax=1e6), 2.0)
    assert not q.stable
    assert q.argmax_cutoff == 1e6  # the sup keeps moving out


def test_exponent_decreasing_and_domination():
    series = torus_series("modulus:0.75", nmax=1e5)
    for p in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="exponent needs 1 < p < infinity"):
            quasinorm(series, p)
    # cutoffs >= 2 make N^e(p) pointwise decreasing in p, so gamma follows
    g_small = quasinorm(series, 4.0 / 3.0).gamma
    g_large = quasinorm(series, 4.0).gamma
    assert g_large <= g_small


# ---------------------------------------------------------------------------
# Residues and density integrals
# ---------------------------------------------------------------------------

def test_residue_identity_at_unit_density():
    series = torus_series("bessel:1:2", nmax=1e4)
    est = dixmier_estimate(series)
    res = residue_factored(1.0, series)
    assert res.value == est.value  # same floats, same code path
    assert res.verdict == est.verdict


def test_residue_scales_and_zeroes():
    series = torus_series("bessel:1:2", nmax=1e4)
    res0 = residue_factored(0.0, series)
    assert res0.value == 0.0
    res2 = residue_factored(2.0, series)
    assert res2.value == pytest.approx(2 * residue_factored(1.0, series).value,
                                       rel=1e-14)


def test_residue_reads_every_picture():
    # res = a * Tr_w on every series, the picture tag aside
    cutoffs = dyadic_grid(100, 2)
    boundary = PartialSumSeries(cutoffs, np.log(cutoffs), cutoffs,
                                dim=1, picture="boundary-index")
    sphere = partial_sums(Geometry.sphere(3), parse_symbol("radial:3"),
                          dyadic_grid(40, 4))
    assert sphere.picture == "homogeneous"
    for series in (boundary, sphere):
        assert residue_factored(1.0, series) == dixmier_estimate(series)
        assert residue_factored(2.0, series).value == 2.0 * dixmier_estimate(series).value


def test_torus_density_integral_exact_for_trig_polynomials():
    # the mean of uniform samples is the periodic rectangle rule, exact for
    # trigonometric polynomials of degree below the samples per variable
    xs = [i / 64 for i in range(64)]
    val = density_integral_from_samples(1.0 + math.cos(2 * math.pi * x) for x in xs)
    assert val == pytest.approx(1.0, abs=1e-12)
    xs = [i / 32 for i in range(32)]
    val2 = density_integral_from_samples(
        2.0 + math.sin(2 * math.pi * x) * math.cos(2 * math.pi * y) for x in xs for y in xs)
    assert val2 == pytest.approx(2.0, abs=1e-12)


def test_density_integral_from_samples_is_mean():
    vals = [0.5, 1.5, 2.0]
    assert density_integral_from_samples(vals) == pytest.approx(4.0 / 3.0,
                                                                rel=1e-15)
