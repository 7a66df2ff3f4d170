"""CLI reports reproduced byte for byte against committed golden files.

The files under tests/golden/ were written by the tuple/Fraction scalar
kernel that preceded the packed-int one; the report bytes depend only on the
mathematics, so every scalar kernel must reproduce them exactly.  (Criterion
10 only checks that one kernel is deterministic from run to run.)
"""

from pathlib import Path

import pytest

from solvir.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_all_seed42.json": ["verify", "all", "--seed", "42"],
    "dims_gvm.json": ["dims", "gvm", "--n", "2", "--kappa", "0", "--boxes", "1..6"],
    "dims_verma.json": ["dims", "verma", "--n", "2", "--shift", "-1,0",
                        "--boxes", "1..6"],
    "normalize.json": ["normalize", "--input", str(GOLDEN / "theta_normalize.json"),
                       "--box", "3"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
