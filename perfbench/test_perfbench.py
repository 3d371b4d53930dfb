"""Tests of the benchmark's own input generation, oracles and tracer."""

import math
import sys
import types

import numpy as np

import inputs
import oracle
from run import tail
from tracer import TARGETS, Tracer, metric_names


def _take(gen, n):
    return [next(gen) for _ in range(n)]


def test_same_seed_same_inputs_other_seed_different():
    assert _take(inputs.design_blocks(7), 3) == _take(inputs.design_blocks(7), 3)
    assert _take(inputs.design_blocks(7), 3) != _take(inputs.design_blocks(8), 3)
    assert _take(inputs.cli_blocks(7), 6) == _take(inputs.cli_blocks(7), 6)
    assert _take(inputs.cli_blocks(7), 6) != _take(inputs.cli_blocks(8), 6)


def test_blocks_hold_the_stated_mix():
    block = next(inputs.design_blocks(3))
    angles = [c["collection"]["external_angle_deg"] for c in block]
    assert angles.count(0.0) == 1 and max(angles) <= 6.0
    pairs = {(c["angle_convention"], c["polarization_assignment"]) for c in block}
    assert len(pairs) == 4
    five = _take(inputs.cli_blocks(3), len(inputs.REJECTS))
    kinds = [r["kind"] for b in five for r in b]
    assert kinds.count("rate") == 15 and kinds.count("compare-experiment") == 10
    assert sorted(k for k in kinds if k.startswith("reject:")) == sorted(
        f"reject:{name}" for name, _, _ in inputs.REJECTS)
    assert math.isclose(sum(inputs.KIND_WEIGHTS.values()), 1.0)


def test_oracle_flags_s_off_by_1e5():
    src = oracle.Source(next(inputs.design_blocks(1))[0])
    errors = []
    oracle.check_xi_s(errors, src, src.xi, src.S + 1e-7)
    assert errors == []
    oracle.check_xi_s(errors, src, src.xi, src.S + 1e-5)
    assert len(errors) == 1 and errors[0].startswith("S:")
    errors = []
    oracle.check_s_rows(errors, [(2.0, oracle.spectral_integral_S(2.0) - 1e-5)], "S rows")
    assert len(errors) == 1


def test_oracles_match_closed_forms():
    d = np.linspace(-100.0, 100.0, 401)
    safe = np.where(d == 0.0, 1.0, d)
    sinc = np.where(d == 0.0, 1.0, np.sin(safe) / safe)
    assert np.max(np.abs(oracle.phi_z(0.0, d) - sinc)) < 1e-13
    for xi in (0.3, 1.0, 6.4):
        exact = math.sqrt(math.pi) / (2 * xi) * math.erf(xi)
        assert abs(oracle.phi_z(xi, 0.0)[0] - exact) < 1e-14
    # S(Xi) is the integral of phi_z^2 over the real line (Plancherel)
    # (the tail beyond |x| = 200 is e^-2 sin^2(x) / x^2 to leading order)
    x = np.linspace(-200.0, 200.0, 40001)
    s = np.trapezoid(oracle.phi_z(1.0, x) ** 2, x) + math.exp(-2.0) / 200.0
    assert abs(s - oracle.spectral_integral_S(1.0)) < 1e-4
    assert oracle.spectral_integral_S(0.0) == math.pi


def test_tail_has_ten_samples_beyond():
    value, pct = tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert tail([3.0, 1.0]) == (3.0, 100.0)


def test_tracer_missing_function_reports_zero_and_patches_every_binding(monkeypatch):
    pkg = "fakepkg"
    numerics = types.ModuleType(f"{pkg}.numerics")
    modes = types.ModuleType(f"{pkg}.modes")
    rates = types.ModuleType(f"{pkg}.rates")

    def phi_z(xi, delta_phi):
        arr = np.atleast_1d(delta_phi)
        if arr.size > 2:  # recursive chunks, as the library's phi_z does
            return np.concatenate([modes.phi_z(xi, arr[:2]), modes.phi_z(xi, arr[2:])])
        return arr * 0.0 + xi

    modes.phi_z = phi_z
    rates.phi_z = phi_z  # bound by name, as ``from .modes import phi_z`` does
    for name, mod in ((pkg, types.ModuleType(pkg)), (numerics.__name__, numerics),
                      (modes.__name__, modes), (rates.__name__, rates)):
        monkeypatch.setitem(sys.modules, name, mod)

    tracer = Tracer(package=pkg).install()
    rates.phi_z(1.0, np.zeros(5))
    m = tracer.metrics()
    tracer.uninstall()

    assert set(m) == set(metric_names()) and len(m) == len(metric_names())
    assert m["modes.phi_z.calls"] == 5          # outer call + four nested chunks
    assert m["modes.phi_z.points"] == 5         # counted at the outermost call only
    assert 0.0 < m["modes.phi_z.self_s"] <= m["modes.phi_z.total_s"] + 1e-9
    missing = [f"{mod}.{func}" for mod, func, *_ in TARGETS if (mod, func) != ("modes", "phi_z")]
    for key in missing:
        assert m[f"{key}.calls"] == 0 and m[f"{key}.total_s"] == 0.0
    assert modes.phi_z is phi_z and rates.phi_z is phi_z
