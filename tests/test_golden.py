"""CLI reports reproduced byte for byte against committed golden files.

The files under tests/golden/ were written by the tuple/Fraction scalar
kernel that preceded the packed-int one, and normalize_not_cocycle.json by
the exhaustive cocycle scan that preceded the linearity check; the report
bytes depend only on the mathematics, so every implementation must
reproduce them exactly.  (Criterion 10 only checks that one implementation
is deterministic from run to run.)

No CLI report shows a Verma or GVM vector, so straighten.txt pins the
rendered results of verma_act and gvm_act, and the rendering of the other
combination types, directly.  It was captured before the five combination
classes were folded into one base type and the two straightening routines
into one.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from solvir.algebra import AlgebraElement, CENTRAL, basis_element
from solvir.cli import main
from solvir.cocycle import OneCochain
from solvir.density import DensityVector, formal_params
from solvir.gvm import GvmVector, gvm_act, level_weight_basis
from solvir.scalars import A, LAMBDA, ONE, Scalar
from solvir.verma import PBWMonomial, VermaVector, verma_act

GOLDEN = Path(__file__).parent / "golden"

# report file -> (arguments, exit code)
CASES = {
    "verify_all_seed42.json": (["verify", "all", "--seed", "42"], 0),
    "dims_gvm.json": (["dims", "gvm", "--n", "2", "--kappa", "0", "--boxes", "1..6"], 0),
    "dims_verma.json": (["dims", "verma", "--n", "2", "--shift", "-1,0",
                         "--boxes", "1..6"], 0),
    "normalize.json": (["normalize", "--input", str(GOLDEN / "theta_normalize.json"),
                        "--box", "3"], 0),
    # the first failing triple is neither the first triple of the exhaustive
    # scan nor the first one that reads an extra pair
    "normalize_not_cocycle.json": (["normalize", "--input",
                                    str(GOLDEN / "theta_not_cocycle.json"),
                                    "--box", "2"], 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path):
    args, code = CASES[name]
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def straighten_lines():
    """One line per case: a label, a tab and the rendered result."""
    lines = []
    radius1 = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    letters = [p for p in radius1 if p < (0, 0)]
    rng = random.Random(8)
    for k in range(3):
        word = [rng.choice(letters) for _ in range(8)]
        v = VermaVector(2, {PBWMonomial(2, word): ONE})
        for alpha in radius1:
            out = verma_act(basis_element(2, alpha), v)
            lines.append(f"verma {k} {alpha} {v}\t{out}")
    p = formal_params(1)
    for level in (1, 2):
        for kappa in ((0,), (1,)):
            for mono in level_weight_basis(2, level, kappa, 1):
                v = GvmVector(2, {mono: ONE})
                for alpha in radius1:
                    out = gvm_act(basis_element(2, alpha), v, p)
                    lines.append(f"gvm {alpha} {v}\t{out}")
    lines.append("density\t" + str(DensityVector(2, {(1, -2): LAMBDA + A, (0, 0): 3,
                                                     (-1, 0): ONE.div_form((1, 1))})))
    lines.append("algebra\t" + str(AlgebraElement(2, {(2, 1): Scalar.mu_form((1, 1)),
                                                      (0, 0): 2, CENTRAL: LAMBDA})))
    lines.append("cochain\t" + repr(OneCochain(2, {(1, 0): A, (-1, 2): 5,
                                                   (0, 0): Fraction(-2, 3),
                                                   (2, 2): 0}).to_records()))
    return lines


def test_straightening_and_rendering_match_golden():
    expected = (GOLDEN / "straighten.txt").read_text().splitlines()
    assert straighten_lines() == expected
