"""CLI reports reproduced byte for byte against committed golden files.

The files under tests/golden/ were written by the tuple/Fraction scalar
kernel that preceded the packed-int one, and normalize_not_cocycle.json by
the exhaustive cocycle scan that preceded the linearity check; the report
bytes depend only on the mathematics, so every implementation must
reproduce them exactly.  (Criterion 10 only checks that one implementation
is deterministic from run to run.)
"""

from pathlib import Path

import pytest

from solvir.cli import main

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
