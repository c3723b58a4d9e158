"""Shared fixtures: the worked instances every test module leans on."""

from fractions import Fraction

import pytest

from hgpade.pade import build_system
from hgpade.polyops import HypergeometricSpec, psi_weights

F = Fraction


@pytest.fixture(scope="session")
def spec_r1():
    # one upper parameter, no lower ones: c_k = (1/3)_{k+1} / (k+1)!
    return HypergeometricSpec.from_ab((F(1, 3),), ())


@pytest.fixture(scope="session")
def spec_r2():
    # the instance used throughout the docs: a = (1/3, 1/4), b = (1/2)
    return HypergeometricSpec.from_ab((F(1, 3), F(1, 4)), (F(1, 2),))


@pytest.fixture(scope="session")
def spec_r3():
    return HypergeometricSpec.from_ab(
        (F(1, 3), F(1, 4), F(1, 5)), (F(1, 2), F(2, 3))
    )


@pytest.fixture(scope="session")
def toy_spec():
    # A = X + 2, B = X + 1, c_0 = 1: c_k = 1 for every k, so F_0(w) = w/(1-w)
    return HypergeometricSpec.from_roots((F(2),), (F(1),), F(1))


@pytest.fixture(scope="session")
def canonical_system(spec_r2):
    # r = 2, m = 2, n = 1: big enough to be honest, small enough to be fast
    return build_system(spec_r2, (F(1), F(2)), 1)


@pytest.fixture(scope="session")
def canonical_m1(spec_r2):
    return build_system(spec_r2, (F(1),), 1)


def _check_remainder_lists(system, key):
    # every entry of the term list of R_{ell,i,s} is psi(t^k P_ell), inside
    # the window the stored coefficient of 1/z^{k+1}, and every size is
    # sum_d |P_d| |w_{k+d}| from the window's end on, each against its naive
    # Fraction sum
    end, terms, sizes = system._lists[key]
    ell, i, s = key
    P, tail = system.P[ell], system.R[key]
    assert end == system.truncation - 1
    w = psi_weights(system.spec, system.alphas[i - 1], s,
                    end + max(len(terms), len(sizes)) + len(P))
    assert terms[:end] == [tail.coeff(k + 1) for k in range(end)]
    for k, term in enumerate(terms):
        assert term == sum((c * w[k + d] for d, c in enumerate(P)), F(0))
    for j, size in enumerate(sizes):
        assert size == sum((abs(c) * abs(w[end + j + d]) for d, c in enumerate(P)), F(0))


@pytest.fixture(scope="session")
def check_remainder_lists():
    """Check a system's term and size lists of one (ell, i, s) entry by entry."""
    return _check_remainder_lists
