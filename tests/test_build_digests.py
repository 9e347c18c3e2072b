"""The builder's exported programs are pinned byte for byte.

Each digest is the sha256 of ``ConicProgram.export_text`` for one program:
every bundled problem at its file order, union and five-dim at order 2,
and the toy's refinement programs at the scaled decision 0.5, all in both
bases.  A refactor of the builder must leave every digest unchanged; a
deliberate change to the programs must update them and say why.
"""

import hashlib

import pytest

from chanceopt.moments import BASES
from chanceopt.problems import BUNDLED, load_bundled
from chanceopt.relaxation import build_chance_sdp, build_refinement_sdp

DIGESTS = {
    ("example1_toy", 2, "monomial"):
        "19b8ba37b32e8e218bcfdc4f9a45c027a7d272d353e3d81d31cbf2aa3f2ec2a1",
    ("example1_pair", 2, "monomial"):
        "fd510484d80db66d749a51c67aa8597de73cf135a2567689f9b5f969bd9ab214",
    ("example1_5d", 1, "monomial"):
        "ae8a39dcdf01c17794e8148c07e31480d23afc0f88e6ef05c32193df66b60731",
    ("example2_union", 1, "monomial"):
        "5212bd5e1a3bfe14592040b8b68fe51cc22839f91b7291165b6563db34d39b89",
    ("example3_portfolio", 1, "monomial"):
        "eb8a31a64e8eb781485f1638611348bb3550721930247d140be2f482b511d179",
    ("example4_control", 2, "monomial"):
        "8a4e826e58173334a7f797dc272880815db246735a88325bc5e2bf9db0bf47ca",
    ("example5_scaling", 1, "monomial"):
        "a9372f215453c17ffbd401988e847186ea89b8aa4680a577e05ca896d1702de3",
    ("example2_union", 2, "monomial"):
        "8d894e67430b497310137dbb81388db0d7a2920d3dc59cc70b4297e65258327d",
    ("example1_5d", 2, "monomial"):
        "9305bb8652d128a5c229ea12a8b4ac8973e903aa86222d1a49498b5faecef03c",
    ("example1_toy", 2, "chebyshev"):
        "7365f268fac9304ea664a850e385da680a682099a6f2103b0e90f61340b37f31",
    ("example1_pair", 2, "chebyshev"):
        "b263663796e5ea88940d1ef1983d3bd2b5427922bccdb4b54659c322bf3e00d5",
    ("example1_5d", 1, "chebyshev"):
        "f7fdf5fc6d47616dab9dc13e5583ab1770aaf03a255aa57ff5612025155e88c3",
    ("example2_union", 1, "chebyshev"):
        "3b8013e40328000c40f4543850bc8bd3c5a6deb8267e50ab7a50ca116bb7c13b",
    ("example3_portfolio", 1, "chebyshev"):
        "007698f36f44a982e55ecaa64e91af238de1f67d2974213b0565c1dea527bdd1",
    ("example4_control", 2, "chebyshev"):
        "b99682fedab93989cffaae1dbb121fb187f42ac8a3fb12b54725a2d501af3909",
    ("example5_scaling", 1, "chebyshev"):
        "9452050d4f254c29d0be36c64cf4622e34560eb654d59165a56c972c616d1a8c",
    ("example2_union", 2, "chebyshev"):
        "39def8d6bed7ffaaba178913cc23a59aa37b334d5cb93b1ff241dd47fc243ed5",
    ("example1_5d", 2, "chebyshev"):
        "af5239dae06192be23394cf9880e87e893a57f9372323be230fd5bd7b04a6fe2",
}

REFINEMENT_DIGESTS = {
    ("indicator", "monomial"):
        "f6aca46fe31fda65c951fcfa8e3034f9d01aa2e2051f4862450a6e7dc49cf2cd",
    ("product", "monomial"):
        "3ae9f4a24ee093af0a1efa839431caf3cd98607f87f4f12c59d779b08ff5eb77",
    ("indicator", "chebyshev"):
        "4d3277c8fcf937dbb47d13409c2da81b9ce79e589953b110a93aa8d1d61ab7fb",
    ("product", "chebyshev"):
        "c2f61f8382e817882d83d287016a02f59882308cd669ee9aff908102603e1d99",
}


def _digest(program, tmp_path) -> str:
    path = program.export_text(tmp_path / "program.txt")
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", BUNDLED)
def test_every_bundled_problem_pinned_at_its_file_order(name):
    _, options = load_bundled(name)
    for basis in BASES:
        assert (name, options.order, basis) in DIGESTS


@pytest.mark.parametrize("name,order,basis", sorted(DIGESTS))
def test_chance_program_digest(name, order, basis, tmp_path):
    problem, options = load_bundled(name)
    program = build_chance_sdp(problem, order, omega_r=options.omega_r, basis=basis)
    assert _digest(program, tmp_path) == DIGESTS[name, order, basis]


@pytest.mark.parametrize("mode,basis", sorted(REFINEMENT_DIGESTS))
def test_toy_refinement_digest(mode, basis, tmp_path):
    problem, _ = load_bundled("example1_toy")
    program = build_refinement_sdp(problem, [0.5], 2, mode=mode, basis=basis)
    assert _digest(program, tmp_path) == REFINEMENT_DIGESTS[mode, basis]
