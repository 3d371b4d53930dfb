"""Golden outputs: the files and stdout of the shipped runs, compared with the copies
stored under ``tests/golden/``.

Each golden is the CLI's own output for one of these command lines, ``<shipped>``
being ``src/spdcgauss/data/bbo_branciard.json``:

    shipped/rate                    spdc-gauss rate --config <shipped> --out <out>
    shipped/compare-experiment      spdc-gauss compare-experiment --config <shipped> --out <out>
    internal/COMMAND                the same, with --set angle_convention=internal_physics
    collinear/COMMAND               the same, with --set collection.external_angle_deg=0
    pumpobj/COMMAND                 the same, with
        --set 'pump={"wavelength_nm": 351.1, "power_mw": 2.5, "waist_um": 82.0}'
    figures                         spdc-gauss figures --out <out>

``tests/golden/RUN/`` holds files that the run wrote to ``<out>``, and
``tests/golden/RUN.stdout`` its stdout, the output directory written as ``<out>``.
Every file stored there is compared:

- byte-exact, except as follows;
- ``run_manifest.json`` without its ``config_path`` and ``output_dir`` lines, which
  name the run's own paths (dropped on both sides; the stored copy holds neither);
- ``rate_spectrum.csv`` (stored for ``shipped`` and ``collinear`` only): its
  ``omega_s`` and ``delta_phi`` cells bit-equal, each density cell within
  ``DENSITY_TOLERANCE`` of the golden's peak density, since the density bits follow
  numpy's SIMD ``exp``/``cos`` and the BLAS summation order;
- ``fig_longitudinal_overlap.csv`` (377 KB) as its ``sha256sum`` line, in
  ``fig_longitudinal_overlap.csv.sha256``.

To update a golden, re-run its command and store what it wrote in the same form; a
change to any shipped output updates its golden in the same diff.
"""

import hashlib
import itertools
import pathlib

import pytest

import spdcgauss as sg
from spdcgauss.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
# a density cell may differ from the golden's by this fraction of its peak density
DENSITY_TOLERANCE = 1e-14
# the manifest lines that name the run's own paths
PATH_LINES = ('  "config_path": ', '  "output_dir": ')

OVERRIDES = {
    "shipped": [],
    "internal": ["angle_convention=internal_physics"],
    "collinear": ["collection.external_angle_deg=0"],
    "pumpobj": ['pump={"wavelength_nm": 351.1, "power_mw": 2.5, "waist_um": 82.0}'],
}
RUNS = {f"{case}/{command}": [command, "--config", sg.builtin_config_path(),
                              *(arg for item in sets for arg in ("--set", item))]
        for case, sets in OVERRIDES.items() for command in ("rate", "compare-experiment")}
RUNS["figures"] = ["figures"]


def _first_difference(name, golden, output, same=str.__eq__):
    """None where every pair of lines passes ``same``, else a message naming
    ``name``, the first line that does not, and both texts of it."""
    pairs = itertools.zip_longest(golden.splitlines(True), output.splitlines(True))
    for number, (want, got) in enumerate(pairs, 1):
        if want is None or got is None or not same(want, got):
            return f"{name}, line {number}:\n  golden: {want!r}\n  output: {got!r}"
    return None


def _spectrum_cells_agree(golden):
    """``same`` for ``rate_spectrum.csv``: the frequency and delta_phi cells
    bit-equal, the density within ``DENSITY_TOLERANCE`` of the golden's peak."""
    peak = max(float(line.split(",")[1]) for line in golden.splitlines()[1:])

    def same(want, got):
        try:  # a header, or a row of another shape, must be equal
            (w_omega, w_density, w_dphi), (omega, density, dphi) = want.split(","), got.split(",")
            return ((omega, dphi) == (w_omega, w_dphi)
                    and abs(float(density) - float(w_density)) <= DENSITY_TOLERANCE * peak)
        except ValueError:
            return want == got
    return same


@pytest.mark.parametrize("run", RUNS)
def test_outputs_match_their_goldens(tmp_path, capsys, run):
    out = tmp_path / "out"
    assert main(RUNS[run] + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    mismatches = [_first_difference(f"{run}.stdout",
                                    (GOLDEN / f"{run}.stdout").read_bytes().decode("utf-8"),
                                    stdout)]
    for path in sorted((GOLDEN / run).iterdir()):
        golden = path.read_bytes().decode("utf-8")
        name = f"{run}/{path.name}"
        if path.suffix == ".sha256":  # the output's sha256sum line
            output = f"{hashlib.sha256((out / path.stem).read_bytes()).hexdigest()}  {path.stem}\n"
        else:
            output = (out / path.name).read_bytes().decode("utf-8")
        if path.name == "run_manifest.json":
            golden, output = ("".join(line for line in text.splitlines(True)
                                      if not line.startswith(PATH_LINES))
                              for text in (golden, output))
        same = _spectrum_cells_agree(golden) if path.name == "rate_spectrum.csv" else str.__eq__
        mismatches.append(_first_difference(name, golden, output, same))
    mismatches = [m for m in mismatches if m]
    assert not mismatches, "\n".join(mismatches)
