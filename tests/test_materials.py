import json
import math
from importlib import resources

import numpy as np
import pytest

from spdcgauss.constants import C_LIGHT
from spdcgauss.errors import (
    DegenerateDispersion,
    OutOfRange,
    ParseError,
    ValidationError,
)
from spdcgauss.materials import (
    CrystalSpec,
    delta_k_z,
    dispersion_factor,
    effective_nonlinearity_bbo,
    index_extraordinary,
    index_ordinary,
    internal_angle,
    load_material_db,
)

LAM_P = 351.1e-9
LAM_D = 702.2e-9

# frozen from a separate evaluation of the published Eimerl coefficient
# sets before the build
N_O_702 = 1.6648059823944632
N_O_351 = 1.7068128335923325
N_EBAR_702 = 1.5484306766910567
N_E_351_CUT = 1.6284957148835988
N_E_702_CUT = 1.594070306308749
D_EFF_BBO = -8.826911098350884e-13
DKZ_BBO_DEGENERATE = -25805.18558424175  # paper-convention 3.1 deg tilts


@pytest.fixture(scope="module")
def bbo():
    db = load_material_db()
    return CrystalSpec.from_material(db["BBO"], length_l=2e-3,
                                     theta_c=math.radians(49.7),
                                     phi_c=math.radians(60.0))


def test_db_ships_bbo_with_source():
    db = load_material_db()
    assert "BBO" in db
    assert db["BBO"].source_citation


def test_index_ordinary_values(bbo):
    assert index_ordinary(bbo, LAM_D) == pytest.approx(N_O_702, rel=1e-12)
    assert index_ordinary(bbo, LAM_P) == pytest.approx(N_O_351, rel=1e-12)
    # coarse sanity against the worked-example numbers
    assert index_ordinary(bbo, LAM_D) == pytest.approx(1.665, abs=5e-4)
    assert index_ordinary(bbo, LAM_P) == pytest.approx(1.707, abs=5e-4)


def test_index_out_of_range(bbo):
    with pytest.raises(OutOfRange):
        index_ordinary(bbo, 100e-9)
    with pytest.raises(OutOfRange):
        index_extraordinary(bbo, 2.0e-6, 0.3)


def test_index_ellipse_endpoints(bbo):
    rng = np.random.default_rng(7)
    lams = rng.uniform(0.25e-6, 1.0e-6, size=100)
    for lam in lams:
        lam = float(lam)
        assert index_extraordinary(bbo, lam, 0.0) == pytest.approx(
            index_ordinary(bbo, lam), rel=1e-14)
        assert index_extraordinary(bbo, lam, math.pi / 2) == pytest.approx(
            bbo.extraordinary.index(lam), rel=1e-14)


def test_index_ellipse_cut_angle(bbo):
    n = index_extraordinary(bbo, LAM_P, math.radians(49.7))
    assert n == pytest.approx(N_E_351_CUT, rel=1e-12)
    assert bbo.extraordinary.index(LAM_P) < n < index_ordinary(bbo, LAM_P)


def test_index_ellipse_monotonic(bbo):
    thetas = np.linspace(0.0, math.pi / 2, 50)
    ns = [index_extraordinary(bbo, LAM_D, float(t)) for t in thetas]
    # negative uniaxial: n_e decreases from n_o toward n_ebar
    assert all(a > b for a, b in zip(ns, ns[1:]))


def test_effective_nonlinearity(bbo):
    d = effective_nonlinearity_bbo(bbo)
    assert d == pytest.approx(D_EFF_BBO, rel=1e-12)
    assert abs(abs(d) - 9e-13) < 0.5e-13  # one significant figure
    flat = CrystalSpec(bbo.name, bbo.ordinary, bbo.extraordinary,
                       bbo.d22_m_per_v, bbo.length_l, 0.0, 0.0)
    assert effective_nonlinearity_bbo(flat) == bbo.d22_m_per_v
    null = CrystalSpec(bbo.name, bbo.ordinary, bbo.extraordinary,
                       bbo.d22_m_per_v, bbo.length_l, bbo.theta_c,
                       math.radians(30.0))
    assert effective_nonlinearity_bbo(null) == pytest.approx(0.0, abs=1e-27)


def test_internal_angle():
    assert internal_angle(0.0, 1.665) == 0.0
    got = math.degrees(internal_angle(math.radians(3.1), 1.665))
    assert got == pytest.approx(1.8612809536964485, rel=1e-12)
    assert internal_angle(0.2, 1.0) == pytest.approx(0.2, rel=1e-15)


@pytest.mark.parametrize("theta", [-0.1, math.pi / 2 + 1e-9, math.nan])
def test_index_ellipse_refuses_an_angle_outside_its_domain(bbo, theta):
    with pytest.raises(ValidationError, match=r"theta must lie in \[0, pi/2\]"):
        index_extraordinary(bbo, LAM_D, theta)


@pytest.mark.parametrize("theta, n, message", [
    (-0.1, 1.6, r"theta_external must lie in \[0, pi/2\)"),
    (math.pi / 2, 1.6, r"theta_external must lie in \[0, pi/2\)"),
    (0.1, 0.99, "n_inside must be >= 1"),
    (0.1, math.nan, "n_inside must be >= 1"),
    (0.1, math.inf, "n_inside must be >= 1"),
])
def test_internal_angle_refuses_input_outside_its_domain(theta, n, message):
    with pytest.raises(ValidationError, match=message):
        internal_angle(theta, n)


def test_internal_external_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        theta = float(rng.uniform(0.0, 1.4))
        n = float(rng.uniform(1.0, 2.5))
        # Snell's law sin(theta_ext) = n sin(theta_int), solved for theta_ext
        assert math.asin(n * math.sin(internal_angle(theta, n))) == pytest.approx(
            theta, abs=1e-12)


def test_delta_k_z_matched_zero():
    w = 2.0e15
    assert delta_k_z(1.6, 1.6, 1.6, w, 2 * w, 0.0, 0.0) == pytest.approx(
        0.0, abs=1e-9)


def test_delta_k_z_linear_in_frequency():
    w = 2.0e15
    one = delta_k_z(1.66, 1.55, 1.60, w, 2 * w, 0.02, 0.03)
    two = delta_k_z(1.66, 1.55, 1.60, 2 * w, 4 * w, 0.02, 0.03)
    assert two == pytest.approx(2.0 * one, rel=1e-12)
    # an ndarray of signal frequencies, each with its idler at omega_p - omega_s
    omega_s = np.linspace(0.9 * w, 1.1 * w, 5)
    expect = [delta_k_z(1.66, 1.55, 1.60, float(ws), 2 * w, 0.02, 0.03) for ws in omega_s]
    assert delta_k_z(1.66, 1.55, 1.60, omega_s, 2 * w, 0.02, 0.03).tolist() == expect


def test_delta_k_z_bbo_worked_example():
    w_p = 2 * math.pi * C_LIGHT / LAM_P
    th = math.radians(3.1)
    got = delta_k_z(N_O_702, N_E_702_CUT, N_E_351_CUT,
                    w_p / 2, w_p, th, th)
    assert got == pytest.approx(DKZ_BBO_DEGENERATE, rel=1e-9)


def test_dispersion_factor():
    assert dispersion_factor(1.55, 1.66, 0.0, 0.0) == pytest.approx(
        0.11 / C_LIGHT, rel=1e-12)
    # swapping the labels flips the sign
    assert dispersion_factor(1.66, 1.55, 0.0, 0.0) == pytest.approx(
        -0.11 / C_LIGHT, rel=1e-12)
    with pytest.raises(DegenerateDispersion):
        dispersion_factor(1.6, 1.6, 0.1, 0.1)


def test_crystal_spec_validation(bbo):
    with pytest.raises(ValidationError):
        CrystalSpec(bbo.name, bbo.ordinary, bbo.extraordinary,
                    bbo.d22_m_per_v, -1.0, 0.3, 0.3)
    with pytest.raises(ValidationError):
        CrystalSpec(bbo.name, bbo.ordinary, bbo.extraordinary,
                    bbo.d22_m_per_v, 1e-3, 3.0, 0.3)
    with pytest.raises(ValidationError, match="finite"):
        CrystalSpec(bbo.name, bbo.ordinary, bbo.extraordinary,
                    bbo.d22_m_per_v, math.inf, 0.3, 0.3)
    with pytest.raises(ValidationError, match="finite"):
        CrystalSpec(bbo.name, bbo.ordinary, bbo.extraordinary,
                    math.nan, 1e-3, 0.3, 0.3)


def test_malformed_db(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_material_db(str(bad))
    empty = tmp_path / "e.json"
    empty.write_text('{"materials": []}')
    with pytest.raises(ParseError):
        load_material_db(str(empty))
    # pole_quadratic, with four coefficients, is the one dispersion form
    shipped = resources.files("spdcgauss").joinpath("data/materials.json").read_text()
    for field, value, message in (("form", "sellmeier_3term", "unknown dispersion form"),
                                  ("coefficients", [2.7, 0.018, 0.018], "expected 4")):
        doc = json.loads(shipped)
        doc["materials"][0]["ordinary"][field] = value
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=message):
            load_material_db(str(bad))
