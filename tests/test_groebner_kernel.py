"""Differential tests: the term-list Buchberger kernel against the
``Polynomial``-object engine in ``tests/slow_groebner.py``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gradealg.fields import GF, QQ
from gradealg.groebner import GroebnerBasis, buchberger
from gradealg.polynomials import GREVLEX, LEX, Polynomial, PolyRing, elimination_order
from tests import slow_groebner

FIELDS = (QQ, GF(2), GF(32003))
ORDERS = (GREVLEX, LEX, elimination_order([1], 3))


def _poly(ring, terms) -> Polynomial:
    out = ring.zero
    for mon, coeff in terms:
        out = out + ring.monomial(mon, coeff)
    return out


_TERMS = st.lists(
    st.tuples(
        st.tuples(*[st.integers(0, 3)] * 3),
        st.integers(-9, 9).filter(bool),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    order=st.sampled_from(ORDERS),
    gens=st.lists(_TERMS, min_size=1, max_size=3),
    probes=st.lists(_TERMS, min_size=1, max_size=3),
)
def test_kernel_matches_polynomial_engine(field, order, gens, probes):
    ring = PolyRing(("x", "y", "z"), field)
    # three random generators make a zero-dimensional system whose lex basis
    # can take minutes; two keep the elimination orders fast
    gens = [_poly(ring, t) for t in gens[: 3 if order == GREVLEX else 2]]
    basis = buchberger(gens, order)
    expected = slow_groebner.buchberger(gens, order)
    assert basis == expected
    assert list(map(str, basis)) == list(map(str, expected))
    frozen = GroebnerBasis(ring, order, basis)
    for f in [_poly(ring, t) for t in probes] + gens:
        assert frozen.normal_form(f) == slow_groebner.normal_form(f, basis, order)


def test_kernel_matches_on_a_larger_system():
    # homogenized katsura-3 over Q and GF(32003): many S-pairs and tails
    for field in (QQ, GF(32003)):
        ring = PolyRing(("u0", "u1", "u2", "u3", "h"), field)
        gens = [
            ring.parse(t)
            for t in (
                "u0 + 2*u1 + 2*u2 + 2*u3 - h",
                "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0*h",
                "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1*h",
                "2*u0*u2 + u1^2 + 2*u1*u3 - u2*h",
            )
        ]
        basis = buchberger(gens)
        assert basis == slow_groebner.buchberger(gens)
        frozen = GroebnerBasis(ring, GREVLEX, basis)
        f = ring.parse("u0^3*u3 - 7*u1*u2*h^2 + u3^4")
        assert frozen.normal_form(f) == slow_groebner.normal_form(f, basis)
