"""Stacking invariants of the stacked cores, as properties.

A stacked core must give each element of a stack the bits it gives that
element alone: otherwise a report depends on which other draws share a
call, and no accuracy test sees it.  For every core here, on hypothesis
stacks of 0 to 5 elements:

- element i equals its batch of one, bit for bit;
- reversing the stack reverses the output;
- an empty stack gives an empty result.

Cores: ``grassmannian.chain_direction_vecs`` and
``grassmannian.eta_invariance_checks``.  The chain reader is also held to
the identity-prefixed loop of ``chain_refs``, which an element-consistent
slip (a prefix read one point off) would not break otherwise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.grassmannian import chain_direction_vecs, eta_invariance_checks, random_units

from chain_refs import identity_prefixed_vecs, random_factors

STACKS = settings(derandomize=True, max_examples=150, deadline=None)

SIZES = st.integers(0, 5)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def chain_stacks(draw):
    """Evaluated factors (size, n, n, 2, 2) of a stack of chains of length n."""
    size, n = draw(SIZES), draw(st.integers(0, 6))
    return random_factors(np.random.default_rng(draw(SEEDS)), (size,), n)


@st.composite
def unit_pairs(draw):
    """Series coefficients A, B (size, 2, 2, order + 1) of stacked unit pairs."""
    size, order = draw(SIZES), draw(st.sampled_from([0, 1, 2, 8]))
    units = random_units(np.random.default_rng(draw(SEEDS)), 2 * size, order).c
    return units[0::2], units[1::2]


def assert_stacks_elementwise(core, args, out):
    """``out = core(*args)`` over a stack of ``len(out)`` elements."""
    for i in range(len(out)):
        one = core(*(x[i : i + 1] for x in args))
        assert one.tobytes() == out[i : i + 1].tobytes()
    assert core(*(x[::-1] for x in args)).tobytes() == out[::-1].tobytes()
    empty = core(*(x[:0] for x in args))
    assert empty.shape == (0,) + out.shape[1:]


@STACKS
@given(chain_stacks())
def test_chain_direction_vecs_stack_elementwise(factors):
    out = chain_direction_vecs(factors)
    assert out.shape == factors.shape[:2] + (2,)
    assert_stacks_elementwise(chain_direction_vecs, (factors,), out)
    assert np.array_equal(out, identity_prefixed_vecs(factors))


@STACKS
@given(unit_pairs())
def test_eta_invariance_checks_stack_elementwise(pair):
    out = eta_invariance_checks(*pair)
    assert out.shape == (len(pair[0]),)
    assert_stacks_elementwise(eta_invariance_checks, pair, out)
