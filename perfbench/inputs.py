"""Seeded input generation for the three workloads.

Inputs come in blocks of eight whose composition is fixed: each block is
a small Latin hypercube over the continuous design parameters, with
exact shares for the discrete choices.  A run consumes whole blocks, so
two seeds differ in the sampled values but never in the mix, which keeps
run-to-run spread down without repeating any input.
"""

from __future__ import annotations

import math
import random

BLOCK = 8

# ---------------------------------------------------------------- design_sweep

CONVENTIONS = ("internal_physics", "paper_external_as_internal")
POLARIZATIONS = ("signal_ordinary", "signal_extraordinary")


def _strata(rng: random.Random, n: int):
    """One uniform draw in each of n equal strata of [0, 1), shuffled."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def design_block(rng: random.Random) -> list:
    """Eight BBO source configurations (raw config dicts).

    Equal waists log-uniform in 30-300 um, length log-uniform in 0.5-5 mm,
    power log-uniform in 0.1-100 mW, theta_c uniform in 41-50 deg; one
    config in eight is collinear (external angle exactly 0), the other
    seven are stratified over (0, 6] deg; each angle-convention and
    polarization pairing appears twice.
    """
    waist, length, power, theta_c = (_strata(rng, BLOCK) for _ in range(4))
    angles = [6.0 * (1.0 - u) for u in _strata(rng, BLOCK - 1)]
    angles.insert(rng.randrange(BLOCK), 0.0)
    combos = [(c, p) for c in CONVENTIONS for p in POLARIZATIONS] * 2
    rng.shuffle(combos)
    block = []
    for i in range(BLOCK):
        w = _log_uniform(waist[i], 30.0, 300.0)
        block.append({
            "pump": {"wavelength_nm": 351.1, "power_mw": _log_uniform(power[i], 0.1, 100.0),
                     "waist_um": w},
            "signal": {"waist_um": w},
            "idler": {"waist_um": w},
            "crystal": {"material": "BBO", "length_mm": _log_uniform(length[i], 0.5, 5.0),
                        "theta_c_deg": 41.0 + 9.0 * theta_c[i], "phi_c_deg": 60.0},
            "collection": {"external_angle_deg": angles[i], "solid_angle_sr": 3.3e-5,
                           "pair_to_singles_ratio": 0.23, "decay_paths": 2},
            "angle_convention": combos[i][0],
            "polarization_assignment": combos[i][1],
        })
    return block


# ----------------------------------------------------------------- cli_oneshot

# Share of each request kind in one block of eight.
CLI_MIX = (("rate", 3), ("compare-experiment", 2), ("spectrum", 1),
           ("sweep-gamma", 1), ("reject", 1))

# Requests that must be refused: (name, override, accepted exit codes).
# The contract allows exit 2 (configuration) or 3 (numerical) where the
# classification is a judgement call.
REJECTS = (
    ("negative_waist", "pump.waist_um=-50", (2,)),
    ("unknown_material", "crystal.material=KTP", (2,)),
    ("wavelength_outside_sellmeier", "pump.wavelength_nm=150", (2, 3)),
    ("wrong_json_type", 'pump.power_mw="1.0"', (2,)),
    ("infinite_length", "crystal.length_mm=Infinity", (2, 3)),
)

# Weight of each request kind in the mix, for the mix-weighted ok share.
KIND_WEIGHTS = {kind: n / BLOCK for kind, n in CLI_MIX if kind != "reject"}
KIND_WEIGHTS.update({f"reject:{name}": 1 / (BLOCK * len(REJECTS)) for name, _, _ in REJECTS})


def _perturbations(rng: random.Random) -> list:
    """One to three --set overrides of the shipped config's design values
    (a quarter of the angle overrides are exactly 0, i.e. collinear)."""
    w = repr(_log_uniform(rng.random(), 30.0, 300.0))
    choices = [
        [f"pump.power_mw={_log_uniform(rng.random(), 0.1, 100.0)!r}"],
        [f"pump.waist_um={w}", f"signal.waist_um={w}", f"idler.waist_um={w}"],
        [f"crystal.length_mm={_log_uniform(rng.random(), 0.5, 5.0)!r}"],
        [f"collection.external_angle_deg={0.0 if rng.random() < 0.25 else 6.0 * rng.random()!r}"],
        [f"crystal.theta_c_deg={41.0 + 9.0 * rng.random()!r}"],
    ]
    picked = rng.sample(choices, rng.randint(1, 3))
    return [item for group in picked for item in group]


def cli_block(rng: random.Random, reject_name: str) -> list:
    """Eight CLI requests: dicts with ``kind``, ``argv`` (after the program
    name, without --out) and the parameters the oracle needs."""
    kinds = [k for k, n in CLI_MIX for _ in range(n)]
    rng.shuffle(kinds)
    block = []
    for kind in kinds:
        if kind in ("rate", "compare-experiment"):
            sets = _perturbations(rng)
            req = {"kind": kind, "overrides": sets,
                   "argv": [kind, "--config", "<shipped>"]
                   + [a for s in sets for a in ("--set", s)]}
        elif kind == "spectrum":
            xis = [0.0 if rng.random() < 0.2 else 6.0 * rng.random() for _ in range(3)]
            lo, hi = -_log_uniform(rng.random(), 5.0, 100.0), _log_uniform(rng.random(), 5.0, 100.0)
            req = {"kind": kind, "xis": xis, "dphi": [lo, hi],
                   "argv": ["spectrum", "--xi", ",".join(repr(x) for x in xis),
                            f"--dphi-min={lo!r}", f"--dphi-max={hi!r}"]}
        elif kind == "sweep-gamma":
            lo, hi = 0.05 + 0.45 * rng.random(), 1.5 + 2.5 * rng.random()
            points = rng.randint(101, 1001)
            req = {"kind": kind, "gamma": [lo, hi], "points": points,
                   "argv": ["sweep-gamma", f"--gamma-min={lo!r}", f"--gamma-max={hi!r}",
                            "--points", str(points)]}
        else:
            name, override, codes = next(r for r in REJECTS if r[0] == reject_name)
            req = {"kind": f"reject:{name}", "overrides": [override], "codes": list(codes),
                   "argv": ["rate", "--config", "<shipped>", "--set", override]}
        block.append(req)
    return block


def cli_blocks(seed: int):
    """Endless stream of CLI request blocks; the rejected request of each
    block cycles through REJECTS in a seeded order, so every five blocks
    hold each of them once."""
    rng = random.Random(f"cli_oneshot/{seed}")
    while True:
        order = [name for name, _, _ in REJECTS]
        rng.shuffle(order)
        for name in order:
            yield cli_block(rng, name)


def design_blocks(seed: int):
    rng = random.Random(f"design_sweep/{seed}")
    while True:
        yield design_block(rng)


def quantiles(values) -> dict:
    """min / quartiles / max of a sample, for reporting input properties."""
    v = sorted(values)
    if not v:
        return {}

    def at(q):
        return v[min(len(v) - 1, math.floor(q * (len(v) - 1) + 0.5))]

    return {"min": v[0], "p25": at(0.25), "p50": at(0.5), "p75": at(0.75), "max": v[-1],
            "n": len(v)}
