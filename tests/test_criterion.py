"""The split-variable decision and its constructive certificate."""

import random

import pytest

from gradealg.blowup import assoc_graded_presentation, presentation_bigraded_hilbert
from gradealg.criterion import (
    _verify_iso_witness,
    decide_iso,
    split_check,
    variable_subset_basis,
    verify_iso_witness,
)
from gradealg.fields import GF, QQ
from gradealg.groebner import Ideal, elimination_ideal, ideal_member, ideal_sum
from gradealg.polynomials import PolyRing
from tests.downstairs_hilbert import downstairs_bigraded_hilbert
from tests.test_groebner import ideal_equal
from tests.test_polynomials import random_poly


def decide_and_verify(J: Ideal, i_gens, allow_linear: bool = False) -> tuple:
    """decide_iso and whether the constructive certificate holds:
    ``(decision, verified)``, with ``verified`` false on a negative answer."""
    decision = decide_iso(J, i_gens, allow_linear)
    return decision, decision.isomorphic and verify_iso_witness(J, decision.witness)


def setup(names, j_texts, i_texts, field=QQ):
    R = PolyRing(tuple(names.split(",")), field)
    J = Ideal.parse(R, j_texts)
    f = [R.parse(t) for t in i_texts]
    return R, J, f


def test_positive_fixture():
    R, J, f = setup("x1,x2,x3", ["x1*x2", "x3^2"], ["x1", "x2"])
    d, verified = decide_and_verify(J, f)
    assert d.isomorphic and verified
    assert d.witness.b == (0, 1)
    assert d.witness.c == (2,)
    assert [str(g) for g in d.witness.jb.generators] == ["x1*x2"]
    assert [str(g) for g in d.witness.jc.generators] == ["x3^2"]
    assert d.witness.sigma == {"x1": "Y1", "x2": "Y2"}


def test_not_split_fixture():
    R, J, f = setup("x1,x2", ["x1*x2"], ["x1"])
    d = decide_iso(J, f)
    assert not d.isomorphic
    assert d.failure_reason == "not-split"
    assert d.witness is None
    # the elimination images are both zero, so the split cannot regenerate J
    w = split_check(J, (0,))
    assert w is None


def test_not_split_does_not_certify_a_negative():
    # J = (x1*x2) does not split along B = {x1}, yet G is A through Y1 -> x1
    R, J, f = setup("x1,x2", ["x1*x2"], ["x1"])
    assert decide_iso(J, f).failure_reason == "not-split"
    G = assoc_graded_presentation(J, f)
    assert G.ring.variables == ("x1", "x2", "Y1")
    assert ideal_equal(G.defining, Ideal.parse(G.ring, ["x1", "x2*Y1"]))
    # modulo x1, G = k[x2, Y1]/(x2*Y1), and Y1 -> x1 carries its relation onto J
    relation = G.ring.parse("x2*Y1").rename_into(R, {"Y1": "x1"})
    assert ideal_equal(Ideal(R, [relation]), J)


def test_principal_power_fixture():
    R, J, f = setup("x1,x2", ["x1^3"], ["x1"])
    d, verified = decide_and_verify(J, f)
    assert d.isomorphic and verified
    pres = assoc_graded_presentation(J, f)
    expected = Ideal.parse(pres.ring, ["x1", "Y1^3"])
    assert ideal_equal(pres.defining, expected)


def test_not_variable_generated():
    R, J, f = setup("x1,x2", [], ["x1 + x2"])
    d = decide_iso(J, f)
    assert not d.isomorphic
    assert d.failure_reason == "not-variable-generated"


def test_variable_generated_after_reduction():
    # x1 + x2 generates x1 modulo J = (x2); B also picks up J's own variable
    R, J, f = setup("x1,x2", ["x2"], ["x1 + x2"])
    assert variable_subset_basis(f, J) == (0, 1)
    with pytest.warns(UserWarning):
        d = decide_iso(J, f, allow_linear=True)
    assert d.isomorphic


def test_variable_generated_after_reduction_is_verified():
    # x2 lies in J and in B; the certificate is built without rejecting it
    R, J, f = setup("x1,x2", ["x2"], ["x1 + x2"])
    with pytest.warns(UserWarning):
        d, verified = decide_and_verify(J, f, allow_linear=True)
    assert d.isomorphic and verified
    assert d.witness.b == (0, 1)


def test_linear_generator_guard():
    R, J, f = setup("x1,x2", ["x2"], ["x1"])
    with pytest.raises(ValueError):
        decide_iso(J, f)
    with pytest.warns(UserWarning):
        d = decide_iso(J, f, allow_linear=True)
    assert d.isomorphic


def test_degenerate_inputs_rejected():
    R, J, f = setup("x1,x2", ["x1*x2"], ["x1"])
    with pytest.raises(ValueError):
        decide_iso(J, [R.parse("x1*x2")])  # I zero modulo J
    with pytest.raises(ValueError):
        decide_iso(J, [R.one])
    with pytest.raises(ValueError):
        decide_iso(J, [R.parse("x1 + 1")])
    with pytest.raises(ValueError):
        decide_iso(Ideal.parse(R, ["x1^2 - x2"]), f)  # J inhomogeneous


_R = PolyRing(("x1", "x2"), QQ)
_OTHER = PolyRing(("y1", "y2"), QQ)


# one row per rejection message no other test reaches
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: decide_iso(Ideal.parse(_R, ["x1*x2"]), Ideal.parse(_OTHER, ["y1"])),
         "I and J must share the ambient ring"),
        (lambda: decide_iso(Ideal.parse(_R, ["x1*x2"]), []), "I must be nonzero"),
        # a constant is homogeneous of degree 0, so J = (1) passes the degree checks
        (lambda: decide_iso(Ideal(_R, [_R.one]), [_R.parse("x1")]), "I is the unit ideal modulo J"),
    ],
)
def test_rejection_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_maximal_ideal_always_isomorphic():
    rng = random.Random(41)
    for _ in range(6):
        nvars = rng.randrange(2, 5)
        names = [f"x{i+1}" for i in range(nvars)]
        R = PolyRing(tuple(names), QQ)
        gens = set()
        for _ in range(rng.randrange(1, 4)):
            deg = rng.randrange(2, 4)
            mon = [0] * nvars
            for _ in range(deg):
                mon[rng.randrange(nvars)] += 1
            gens.add(tuple(mon))
        J = Ideal(R, [R.monomial(m) for m in gens])
        d, verified = decide_and_verify(J, [R.var(i) for i in range(nvars)])
        assert d.isomorphic and verified
        assert d.witness.b == tuple(range(nvars))
        assert d.witness.jc.generators == ()


def test_permutation_invariance():
    rng = random.Random(17)
    base_names = ("x1", "x2", "x3")
    for _ in range(6):
        perm = list(range(3))
        rng.shuffle(perm)
        names = tuple(base_names[p] for p in perm)
        R = PolyRing(names, QQ)
        J = Ideal.parse(R, ["x1*x2", "x3^2"])
        d, verified = decide_and_verify(J, [R.parse("x1"), R.parse("x2")])
        assert d.isomorphic and verified
        b_names = {R.variables[i] for i in d.witness.b}
        assert b_names == {"x1", "x2"}


def test_witness_kernel_matches_hilbert():
    # the certified kernel presents a ring with the bigraded dimensions of G
    R, J, f = setup("x1,x2,x3", ["x1*x2", "x3^2"], ["x1", "x2"])
    _, verified = decide_and_verify(J, f)
    assert verified
    pres = assoc_graded_presentation(J, f)
    upstairs = presentation_bigraded_hilbert(pres, 5, 5)
    downstairs = downstairs_bigraded_hilbert(J, f, 5, 5)
    assert upstairs.dims == downstairs.dims


def test_sigma_uses_the_presentation_y_names():
    # base variables named Y1 and t: sigma renames into the certificate's ring
    R, J, f = setup("x1,Y1,t", ["x1*Y1", "t^2"], ["x1", "Y1"])
    w = decide_iso(J, f).witness
    assert w.sigma == {"x1": "Y1_", "Y1": "Y2"}
    verified, pres = _verify_iso_witness(J, w)
    assert verified
    assert tuple(w.sigma.values()) == pres.y_names


def test_verify_rejects_tampered_witness():
    R, J, f = setup("x1,x2,x3", ["x1*x2", "x3^2"], ["x1", "x2"])
    d = decide_iso(J, f)
    w = d.witness
    from gradealg.criterion import SplitWitness

    bad = SplitWitness(w.b, w.c, Ideal(R, []), w.jc, w.sigma)
    assert not verify_iso_witness(J, bad)


def test_verify_rejects_a_tampered_binomial_witness():
    # the twisted cubic's lists are no monomials: they divide by normal forms
    R, J, f = setup(
        "x1,x2,x3,x4", ["x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2"],
        ["x1", "x2", "x3", "x4"],
    )
    w = decide_iso(J, f).witness
    assert verify_iso_witness(J, w)
    bad = w._replace(jb=Ideal(R, w.jb.generators[:2]))
    assert not verify_iso_witness(J, bad)


def test_verify_rejects_a_tampered_monomial_witness():
    # both lists are monomials: they divide by the exponents read off once
    R, J, f = setup("x1,x2,x3", ["x1*x2", "x3^2"], ["x1", "x2"])
    w = decide_iso(J, f).witness
    assert verify_iso_witness(J, w)
    bad = w._replace(jc=Ideal(R, [R.parse("x3^3")]))
    assert not verify_iso_witness(J, bad)


def test_gf_field_decision():
    R, J, f = setup("x1,x2,x3", ["x1*x2", "x3^2"], ["x1", "x2"], field=GF(7))
    d, verified = decide_and_verify(J, f)
    assert d.isomorphic and verified


def test_three_blocks_split():
    R, J, f = setup(
        "x1,x2,x3,x4", ["x1^2*x2", "x3*x4^2", "x3^3"], ["x3", "x4"]
    )
    d, verified = decide_and_verify(J, f)
    assert d.isomorphic and verified
    assert d.witness.b == (2, 3)


def test_mixed_generator_blocks_not_split():
    R, J, f = setup("x1,x2,x3", ["x1*x3 + x2*x3"], ["x1", "x2"])
    d = decide_iso(J, f)
    assert not d.isomorphic
    assert d.failure_reason == "not-split"


def _two_sided_variable_basis(i_gens, J):
    """``variable_subset_basis`` by ideal equality: I + J = (X_B) + J."""
    S = J.ring
    total = ideal_sum(Ideal(S, list(i_gens)), J)
    b = tuple(i for i in range(S.nvars) if ideal_member(S.var(i), total))
    if ideal_equal(total, ideal_sum(Ideal(S, [S.var(i) for i in b]), J)):
        return b
    return None


def _random_j_generator(rng, S):
    x = [S.var(i) for i in range(S.nvars)]
    a, b, c = rng.sample(x, 3)
    return rng.choice([
        a * b,
        a * b * c,
        a**2 * b,
        a * b - c**2,
        a * c + b * c,
        a - b,
        random_poly(rng, S, max_terms=3, max_exp=3),
    ])


def _random_i_generator(rng, S, J):
    x = [S.var(i) for i in range(S.nvars)]
    a, b = rng.sample(x, 2)
    choices = [a, a, a * b, a + b, a + b**2, random_poly(rng, S, max_terms=2, max_exp=3)]
    if J.generators:
        choices.append(a + b * rng.choice(J.generators))  # a modulo J
    return rng.choice(choices)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_variable_subset_basis_matches_the_two_sided_oracle(field):
    rng = random.Random(41 + field.characteristic)
    S = PolyRing(("x1", "x2", "x3", "x4"), field)
    found = set()
    for _ in range(120):
        J = Ideal(S, [_random_j_generator(rng, S) for _ in range(rng.randint(0, 2))])
        f = [_random_i_generator(rng, S, J) for _ in range(rng.randint(1, 3))]
        b = variable_subset_basis(f, J)
        assert b == _two_sided_variable_basis(f, J), (J, f)
        found.add(b is None)
    assert found == {True, False}


def _eliminated_split(J, b):
    """``split_check`` by elimination: ``(JB, JC)`` as J ∩ k[X_B] and J ∩ k[X_C]
    under block orders, when J's generators lie in their sum, else None."""
    c = [i for i in range(J.ring.nvars) if i not in b]
    jb, jc = elimination_ideal(J, b), elimination_ideal(J, c)
    both = ideal_sum(jb, jc)
    if all(ideal_member(g, both) for g in J.generators):
        return jb, jc
    return None


def _assert_split_matches_oracle(J, b):
    w, oracle = split_check(J, b), _eliminated_split(J, b)
    assert (w is None) == (oracle is None), (J, b)
    if w is not None:
        assert [str(g) for g in w.jb.generators] == [str(g) for g in oracle[0].generators]
        assert [str(g) for g in w.jc.generators] == [str(g) for g in oracle[1].generators]
    return w


@pytest.mark.parametrize(
    "names,j_texts,b,splits",
    [
        ("x1,x2,x3", ["x3", "x2^2"], (0,), True),  # x3 in J, the B of I = (x1) omits it
        ("x1,x2,x3", ["x3", "x2^2"], (0, 2), True),  # ... and the B of decide_iso holds it
        ("x1,x2,x3", ["x1*x2 + x3^2", "x3"], (0, 1), True),  # regrouping is needed
        ("x1,x2", ["x1*x2"], (0, 1), True),  # C is empty
        ("x1,x2", ["x1*x2"], (), True),  # B is empty
        ("x1,x2", ["1", "x1^2"], (0,), True),  # the unit ideal
        ("x1,x2", [], (0,), True),  # the zero ideal
        ("x1,x2", ["x1*x2"], (0,), False),
        ("x1,x2,x3", ["x1*x3 + x2*x3"], (0, 1), False),
        ("x1,x2,x3", ["x1^2 - x3^2", "x1*x2"], (0,), False),
    ],
)
def test_split_check_fixtures_match_the_elimination_oracle(names, j_texts, b, splits):
    R = PolyRing(tuple(names.split(",")), QQ)
    w = _assert_split_matches_oracle(Ideal.parse(R, j_texts), b)
    assert (w is not None) == splits


def test_split_check_rejects_indices_outside_the_ring():
    J = Ideal.parse(_R, ["x1*x2"])
    for b in [(2,), (-1,), (0, 5)]:
        with pytest.raises(ValueError):
            split_check(J, b)


def _random_form(rng, S, support, degree):
    """A nonzero form of the given degree in the variables of ``support``."""
    f = S.zero
    while not f:
        for _ in range(rng.randint(1, 3)):
            mon = [0] * S.nvars
            for _ in range(degree):
                mon[rng.choice(support)] += 1
            f = f + S.monomial(tuple(mon), S.field(rng.randrange(1, 7)))
    return f


def _random_split_problem(rng, S):
    """A seeded (J, B): a split J, often with a generator mixed across the
    blocks, or J from forms in random variables; now and then B is every
    variable or J is the unit ideal."""
    n = S.nvars
    size = n if rng.random() < 0.1 else rng.randint(1, n - 1)  # now and then C is empty
    b = tuple(sorted(rng.sample(range(n), size)))
    c = [i for i in range(n) if i not in b]
    split = rng.random() < 0.5
    gens = []
    for _ in range(rng.randint(1, 3)):
        if split:
            support = list(b) if not c or rng.random() < 0.5 else c
        else:
            support = rng.sample(range(n), rng.randint(2, n))
        gens.append(_random_form(rng, S, support, rng.choice([1, 2, 2, 3])))
    if len(gens) > 1 and rng.random() < 0.5:
        # g + h*f for a generator f of at most g's degree: the same ideal
        gens.sort(key=lambda g: g.total_degree())
        f, g = gens[0], gens[-1]
        h = _random_form(rng, S, range(n), g.total_degree() - f.total_degree())
        gens[-1] = g + h * f
    if rng.random() < 0.05:
        gens.append(S.one)
    return Ideal(S, gens), b


# draws per field; the differential test also passes at ten times this
SPLIT_DRAWS = 100


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)])
def test_split_check_matches_the_elimination_oracle(field):
    rng = random.Random(1009 + field.characteristic)
    verdicts = set()
    for _ in range(SPLIT_DRAWS):
        S = PolyRing(tuple(f"x{i + 1}" for i in range(rng.randint(2, 4))), field)
        J, b = _random_split_problem(rng, S)
        verdicts.add(_assert_split_matches_oracle(J, b) is not None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "GF32003"])
def test_certificate_runs_no_buchberger_of_its_own(monkeypatch, field):
    # G's defining ideal and (X_B) + sigma(JB) + JC are reduced grevlex
    # bases already: the certificate divides each side's generators by the
    # other side's list, so its Buchberger runs are the decision's and G's
    from gradealg import blowup, groebner

    R, J, f = setup(
        "x1,x2,x3,x4", ["x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2"],
        ["x1", "x2", "x3", "x4"], field,
    )
    runs = []
    original = groebner.buchberger

    def counting(generators, order):
        runs.append(order)
        return original(generators, order)

    monkeypatch.setattr(groebner, "buchberger", counting)
    groebner._cached_gb.cache_clear()
    d = decide_iso(J, f)
    blowup._assoc_graded(J, tuple(R.var(i) for i in d.witness.b))
    needed = len(runs)
    groebner._cached_gb.cache_clear()
    runs.clear()
    assert decide_and_verify(J, f)[1]
    assert len(runs) == needed
