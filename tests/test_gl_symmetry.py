"""The gl(n) symmetry on the build path, against the paths it replaced.

``psi_invariants`` solves the degree -1 joint kernel on the natural
dominant blocks alone and closes it under the lowering roots;
``restricted_character`` solves the dominant window blocks alone and fills
in the permutations of each weight.  Each must give what solving every
block gives (``psi_span_oracle``, ``restricted_character_oracle``)."""

import pytest

from superw import modules
from superw.glmodules import gl_simple
from superw.induction import kac_plus
from superw.modules import dual_module, psi_invariants, tensor_module
from superw.stability import restricted_character
from superw.tensorfields import extract_L_minus, lambda_module, tensor_field

from helpers import psi_span_oracle, restricted_character_oracle, same_span

BUILDERS = {
    "T(1|1)": lambda n: tensor_field(gl_simple((1,), (1,), n, "interleaved"), n),
    "K+(1|1)": lambda n: kac_plus(gl_simple((1,), (1,), n), n),
    "L-(2|) proper": lambda n: extract_L_minus((2,), (), n),
    "L-(1|1) full": lambda n: extract_L_minus((1,), (1,), n),
    "Lambda(x)Lambda*": lambda n: tensor_module(lambda_module(n),
                                                dual_module(lambda_module(n))),
    "K+(1|)*": lambda n: dual_module(kac_plus(gl_simple((1,), (), n), n)),
}


def test_the_inputs_hold_a_proper_and_a_full_L_minus():
    n = 4
    proper, full = BUILDERS["L-(2|) proper"](n), BUILDERS["L-(1|1) full"](n)
    assert proper.dim < proper.meta["base"].dim << n
    assert full.dim == full.meta["base"].dim << n


def psi_span(monkeypatch, m):
    """The echelon ``psi_invariants`` presents its module on."""
    spans = []

    def spy(parent, ech):
        spans.append(ech)
        return restricted_action(parent, ech)

    restricted_action = modules.restricted_action
    with monkeypatch.context() as mp:
        mp.setattr(modules, "restricted_action", spy)
        inv = psi_invariants(m)
    (ech,) = spans
    assert inv.dim == ech.dim
    return ech


@pytest.mark.parametrize("name", BUILDERS)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_psi_invariants_span_the_all_block_kernel(monkeypatch, name, n):
    m = BUILDERS[name](n)
    assert same_span(psi_span(monkeypatch, m), psi_span_oracle(m))


@pytest.mark.parametrize("mode", ["annihilator", "coinvariants"])
@pytest.mark.parametrize("name", BUILDERS)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_restricted_character_matches_every_window_block(name, n, mode):
    m = BUILDERS[name](n)
    for window in sorted({1, 2, n - 1, n}):
        assert restricted_character(m, window, mode) == \
            restricted_character_oracle(m, window, mode), window
