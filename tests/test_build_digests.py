"""The builder's exported programs are pinned byte for byte.

Each digest is the sha256 of ``ConicProgram.export_text`` for one program:
every bundled problem at its file order, union and five-dim at order 2,
and the toy's refinement programs at the scaled decision 0.5, all in both
bases; and the union at order 3 in the Chebyshev basis, whose localizer
terms sum many products of basis elements.  A refactor of the builder must leave every digest unchanged; a
deliberate change to the programs must update them and say why.

``FULL_DIGESTS`` pins a few chance programs with the decision moment block
put back (``util.with_decision_block``): these are the programs the builder
emitted while it still had that block, so the oracle the reduced programs
are solved against is that program byte for byte.
"""

import hashlib

import pytest

import util
from chanceopt.moments import BASES
from chanceopt.problems import BUNDLED, load_bundled
from chanceopt.relaxation import build_chance_sdp, build_refinement_sdp

DIGESTS = {
    ("example1_toy", 2, "monomial"):
        "22d942f69be45ca282dd9b7af852f581ae40b7febd4d8821e8c30a2f457ee206",
    ("example1_pair", 2, "monomial"):
        "7ab301e327c7ff3506e3eb3abbea12bc6db854c986c9b3744f6fb3213db19e64",
    ("example1_5d", 1, "monomial"):
        "b9c08065d5500e691536743751e3e5fdd7f917cb13cf665f323257540c30895a",
    ("example2_union", 1, "monomial"):
        "e2a93b264791d9b99dde3e3950f4a57021df9887fedd34c9204ec55c59cfe5af",
    ("example3_portfolio", 1, "monomial"):
        "5ef8118c0ae26bcc799a67534aa6e92a8054cb247bab91de3366387875974cd6",
    ("example4_control", 2, "monomial"):
        "ef5895a1874e999a3feef5c2eb2d69d989a0f0e30dfe9b03fa8130e4c53e76c5",
    ("example5_scaling", 1, "monomial"):
        "6670b54dcd2e4f4cd16c035f59e054765cf55c489ff9429f9e1703a41406f8b5",
    ("example2_union", 2, "monomial"):
        "60af073d522ba5b77d376243d32e46629c6ae857fcb349f7c9565c7cc77bab72",
    ("example1_5d", 2, "monomial"):
        "215ef1114adf22f6151345f199a65edb1fe2e8336e355a949ad57803d6dee154",
    ("example1_toy", 2, "chebyshev"):
        "9cb2cd06786f33fbbc6b6516a5a0a186a37d0daad0ae0f2554bfd2dd95e9aef9",
    ("example1_pair", 2, "chebyshev"):
        "db0e58b2c54f25b1a83c4fe01882af165567ca7cff2428dd4fd786008e4b4b30",
    ("example1_5d", 1, "chebyshev"):
        "1b60ac4a8df9eeb4c6eb25d7342ef42a0913baad92b0c4e176a114290f9f6c01",
    ("example2_union", 1, "chebyshev"):
        "49ef9e1e22fd1afdc4adbc5ad64d983bc4c66af9c6dc4e78403146db89f89e82",
    ("example3_portfolio", 1, "chebyshev"):
        "78b0a472d52165f58b91cff3df8c02ec73dea107a3dc4ea398c140ef633b4d7a",
    ("example4_control", 2, "chebyshev"):
        "072fb386e24f629c4be63d4b9f3bbba28db41a7d563d7a55f62e6a5834d77bdc",
    ("example5_scaling", 1, "chebyshev"):
        "4f28ef4f363d7af12ab0515bc48233572691c8176a80214d9075af6d3701fbee",
    ("example2_union", 2, "chebyshev"):
        "c205ba31d939888fc38a84343c4121fe89c5677b6d97565078e20c39efa9d366",
    ("example1_5d", 2, "chebyshev"):
        "54393bcf9bc26dc5fcd112909f7c0d1b07de6bee2eef6b246178eecff2d1eca3",
    ("example2_union", 3, "chebyshev"):
        "82db2d97bc2191fabc4109aa22584874617ef47b0e9426b9c33cfc4adfa63775",
}

FULL_DIGESTS = {
    ("example1_toy", 2, "monomial"):
        "19b8ba37b32e8e218bcfdc4f9a45c027a7d272d353e3d81d31cbf2aa3f2ec2a1",
    ("example1_toy", 2, "chebyshev"):
        "c1add88bd32859d6973bc862ec40fd007ba1ba5f331addcff7937dace14d13d7",
    ("example1_pair", 2, "monomial"):
        "fd510484d80db66d749a51c67aa8597de73cf135a2567689f9b5f969bd9ab214",
    ("example2_union", 1, "monomial"):
        "5212bd5e1a3bfe14592040b8b68fe51cc22839f91b7291165b6563db34d39b89",
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


@pytest.mark.parametrize("name,order,basis", sorted(FULL_DIGESTS))
def test_full_program_digest(name, order, basis, tmp_path):
    problem, options = load_bundled(name)
    program = build_chance_sdp(problem, order, omega_r=options.omega_r, basis=basis)
    assert "decision_moment" not in [b.label for b in program.blocks]
    full = util.with_decision_block(program)
    assert _digest(full, tmp_path) == FULL_DIGESTS[name, order, basis]


@pytest.mark.parametrize("mode,basis", sorted(REFINEMENT_DIGESTS))
def test_toy_refinement_digest(mode, basis, tmp_path):
    problem, _ = load_bundled("example1_toy")
    program = build_refinement_sdp(problem, [0.5], 2, mode=mode, basis=basis)
    assert _digest(program, tmp_path) == REFINEMENT_DIGESTS[mode, basis]
