"""Stacking invariants of the stacked cores, as properties.

A stacked core must give each element of a stack the bits it gives that
element alone: otherwise a report depends on which other draws share a
call, and no accuracy test sees it.  For every core here, on hypothesis
stacks of 0 to 5 elements:

- element i equals its batch of one, bit for bit;
- reversing the stack reverses the output;
- an empty stack gives an empty result.

Cores: ``grassmannian.chain_direction_vecs``,
``grassmannian.eta_invariance_checks`` and ``elliptic.double_hecke``, whose
bundles compare by the bits of ``double_refs.exact``.  The chain reader is
also held to the identity-prefixed loop of ``chain_refs``, which an
element-consistent slip (a prefix read one point off) would not break
otherwise.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import elliptic as ell
from heckelab.grassmannian import chain_direction_vecs, eta_invariance_checks, random_units
from heckelab.suites import _double_sample
from heckelab.torus import Lattice

from chain_refs import identity_prefixed_vecs, random_factors
from double_refs import exact

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


@st.composite
def double_draws(draw):
    """A ``double_hecke`` stack (bundles, p1s, p2s, as_, bs) of
    ``_double_sample`` draws of any kinds, on one of both default lattices."""
    size, tau = draw(SIZES), draw(st.sampled_from([0.21 + 1.3j, 0.3 + 0.45j]))
    kinds = draw(st.lists(st.integers(0, 23), min_size=size, max_size=size))
    rng, lat = np.random.default_rng(draw(SEEDS)), Lattice(tau)
    return [list(x) for x in zip(*(_double_sample(lat, rng, k) for k in kinds))] or [[]] * 5


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


@STACKS
@given(double_draws())
def test_double_hecke_stack_elementwise(stack):
    out = exact(ell.double_hecke(*stack))
    assert len(out) == len(stack[0])
    for i in range(len(out)):
        assert exact(ell.double_hecke(*(x[i : i + 1] for x in stack))) == out[i : i + 1]
    assert exact(ell.double_hecke(*(x[::-1] for x in stack))) == out[::-1]
    assert ell.double_hecke([], [], [], [], []) == []


def test_double_hecke_makes_one_call_per_stack(monkeypatch):
    # Direct calls only: _stable_first_class's own morphism_rep call for
    # the second steps is not counted.
    calls, depth = Counter(), []

    def counted(name, f):
        def wrapper(*args):
            calls[name] += not depth
            depth.append(name)
            try:
                return f(*args)
            finally:
                depth.pop()
        return wrapper

    for name in ("morphism_rep", "evaluate_stack", "_stable_first_class"):
        monkeypatch.setattr(ell, name, counted(name, getattr(ell, name)))
    lat = Lattice()
    rng = np.random.default_rng(7)
    stack = list(zip(*(_double_sample(lat, rng, k) for k in range(24))))
    ell.double_hecke(*stack)
    assert calls == {"morphism_rep": 1, "evaluate_stack": 1, "_stable_first_class": 1}
    calls.clear()
    bad = [k for k in range(24) if ell.bad_group_key(stack[0][k], stack[3][k]) is not None]
    ell.double_hecke(*([x[k] for k in bad] for x in stack))
    assert not calls
