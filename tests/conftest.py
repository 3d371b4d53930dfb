import math
import warnings

import pytest
import scipy.special
from scipy.integrate import quad

import spdcgauss as sg
from spdcgauss.config import AngleConvention, GaussianMode, Role, SourceConfig
from spdcgauss.constants import C_LIGHT, EPSILON_0


@pytest.fixture(scope="session")
def bbo_config():
    """The shipped BBO worked example (paper-matching angle convention)."""
    return sg.load_config(sg.builtin_config_path("bbo_branciard"))


@pytest.fixture(scope="session")
def material_db():
    return sg.load_material_db()


def make_config(
    theta_deg=3.1,
    waist_um=82.0,
    power_mw=1.0,
    length_mm=2.0,
    lambda_p_nm=351.1,
    n_p=1.6284957148835988,
    n_s=1.6648059823944632,
    n_i=1.594070306308749,
    convention=AngleConvention.PAPER_EXTERNAL_AS_INTERNAL,
    material_db=None,
    d22_scale=1.0,
):
    """BBO-like source built directly from modes (bypasses the config file)."""
    db = material_db or sg.load_material_db()
    mat = db["BBO"]
    if d22_scale != 1.0:
        mat = mat._replace(d22_m_per_v=mat.d22_m_per_v * d22_scale)
    crystal = sg.CrystalSpec.from_material(
        mat, length_l=length_mm * 1e-3,
        theta_c=math.radians(49.7), phi_c=math.radians(60.0))
    lam_p = lambda_p_nm * 1e-9
    lam_d = 2 * lam_p
    w = waist_um * 1e-6
    th = math.radians(theta_deg)
    return SourceConfig(
        pump_power_p=power_mw * 1e-3,
        pump=GaussianMode(w, lam_p, 0.0, n_p, Role.PUMP),
        signal=GaussianMode(w, lam_d, th, n_s, Role.SIGNAL),
        idler=GaussianMode(w, lam_d, th, n_i, Role.IDLER),
        crystal=crystal,
        external_collection_angle=th,
        angle_convention=convention,
        collection_solid_angle_sr=3.3e-5,
        pair_to_singles_ratio=0.23,
    )


@pytest.fixture()
def config_factory():
    return make_config


def thin_crystal_rates(config):
    """Oracle: the paper's collinear thin-crystal closed forms, written out
    from the config's inputs without the library's rate code.

    Returns ``(density, rate)``, where ``density(omega_s)`` is

        dR/domega_s = 2 d^2 w_p^2 P l^2 sinc^2(delta_phi)
                      / (9 pi n_p n_s n_i eps0 c^3 (pi Wp^2))

    with delta_phi = (n_s w_s + n_i w_i - n_p w_p) l / (2c), w_i = w_p - w_s,
    and ``rate`` the total

        R_T = 4 d^2 P l w_p^2 / (9 n_s n_i n_p eps0 (pi Wp^2) |n_i - n_s| c^2).
    """
    assert config.signal.theta == config.idler.theta == 0.0, "collinear sources only"
    d, P, l = config.d_eff, config.pump_power_p, config.crystal.length_l
    n_p, n_s, n_i = config.pump.n, config.signal.n, config.idler.n
    w_p = config.pump.omega
    area = math.pi * config.pump.waist_w ** 2

    def density(omega_s):
        dphi = (n_s * omega_s + n_i * (w_p - omega_s) - n_p * w_p) * l / (2.0 * C_LIGHT)
        sinc = math.sin(dphi) / dphi if dphi else 1.0
        return (2.0 * d ** 2 * w_p ** 2 * P * l ** 2 * sinc ** 2
                / (9.0 * math.pi * n_p * n_s * n_i * EPSILON_0 * C_LIGHT ** 3 * area))

    rate = (4.0 * d ** 2 * P * l * w_p ** 2
            / (9.0 * n_s * n_i * n_p * EPSILON_0 * area * abs(n_i - n_s) * C_LIGHT ** 2))
    return density, rate


def phi_z_qawo(xi, delta_phi):
    """Oracle: Phi_z/l = int_0^1 exp(-Xi^2 u^2) cos(delta_phi u) du by QUADPACK's
    QAWO, modified Clenshaw-Curtis for Fourier integrals (Piessens et al.,
    QUADPACK, Springer 1983), which shares nothing with the library's kernels.
    A value that raises ``IntegrationWarning`` fails the calling test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return quad(lambda u: math.exp(-xi * xi * u * u), 0.0, 1.0, weight="cos",
                    wvar=delta_phi, epsabs=1e-13, epsrel=0.0)[0]


def S_parseval(xi: float) -> float:
    """Closed form of the Plancherel identity for the spectral integral, the
    library's formula evaluated with scipy's erf in place of ``math.erf``;
    ``spectral_integral_S_direct`` is the oracle independent of Plancherel."""
    if xi == 0.0:
        return math.pi
    a = math.sqrt(2.0) * xi
    return math.pi * math.sqrt(math.pi) / (2.0 * a) * float(scipy.special.erf(a))


def spectral_integral_S_direct(xi):
    """Oracle: S(Xi) = int |Phi_z/l|^2 d delta_phi over the real line, integrated
    directly rather than through Plancherel's identity.

    The integrand is even. Each panel [k pi, (k + 1) pi] below T = 200 pi is an
    outer ``quad`` over the QAWO Phi_z. Beyond T, Phi_z/l ~ exp(-Xi^2)
    sin(delta_phi) / delta_phi, whose square has mean exp(-2 Xi^2) / (2 delta_phi^2);
    the tail is that mean's integral, exp(-2 Xi^2) / (2 T). Ending at a multiple
    of pi cancels the oscillating part, so the error is O(1/T^3), within 2e-9
    of the closed form for Xi in [0, 5].
    """
    panels = 200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        body = sum(quad(lambda d: phi_z_qawo(xi, d) ** 2, k * math.pi, (k + 1) * math.pi,
                        epsabs=1e-13, epsrel=0.0)[0] for k in range(panels))
    return 2.0 * body + math.exp(-2.0 * xi * xi) / (panels * math.pi)
