"""Committed mutation checks: each mutant swaps one library function for a
broken copy by monkeypatching, and is paired with the small check that
must catch it.  Every check passes on the library and fails under its
mutant; no file is edited.

Known equivalent mutant, not a gap: dropping a raising term in
``modules.top_generator``.  With equal characters the top block is a line
that no raising term can leave, so no check can tell the two apart."""

import pytest

from superw import glmodules, modules, stability
from superw.glmodules import gl_simple, mixed_weight, weyl_dim
from superw.modules import (dual_module, lambda_module, psi_invariants,
                            tensor_module)
from superw.stability import restricted_character

from helpers import psi_span_oracle, restricted_character_oracle


def check_gl_simple_dims():
    # Weyl's dimension formula, in both Borel orders
    for lam, mu in [((1,), (1,)), ((2,), (1,)), ((1, 1), ())]:
        for order in ("natural", "interleaved"):
            assert gl_simple(lam, mu, 4, order).dim == \
                weyl_dim(mixed_weight(lam, mu, 4), 4), (lam, mu, order)


def check_psi_dims():
    # the invariants of Lambda(x)Lambda* hold four simple summands
    m = tensor_module(lambda_module(3), dual_module(lambda_module(3)))
    assert psi_invariants(m).dim == psi_span_oracle(m).dim


def check_restricted_characters():
    m = lambda_module(3)
    for mode in ("annihilator", "coinvariants"):
        assert restricted_character(m, 2, mode) == \
            restricted_character_oracle(m, 2, mode), mode


def drop_a_lowering_root(lowering_roots):
    return lambda b: lowering_roots(b)[1:]


def seed_from_the_top_block(singular_blocks):
    def top_only(m, gen_keys, block_filter=None):
        out = singular_blocks(m, gen_keys, block_filter)
        top = max(out, key=lambda w: w.dense(m.rank))
        return {top: out[top]}
    return top_only


def skip_the_permutation_fill(orbit):
    return lambda dense: iter([dense])


MUTANTS = [
    pytest.param(glmodules, "lowering_roots", drop_a_lowering_root,
                 check_gl_simple_dims, id="cyclic_simple-drops-a-root"),
    pytest.param(modules, "singular_blocks", seed_from_the_top_block,
                 check_psi_dims, id="psi-seeds-the-top-block-only"),
    pytest.param(stability, "_orbit", skip_the_permutation_fill,
                 check_restricted_characters, id="restricted-skips-the-orbit"),
]


@pytest.mark.parametrize("module,name,mutate,check", MUTANTS)
def test_the_check_catches_its_mutant(monkeypatch, module, name, mutate, check):
    check()
    with monkeypatch.context() as mp:
        mp.setattr(module, name, mutate(getattr(module, name)))
        with pytest.raises(AssertionError):
            check()
    check()
