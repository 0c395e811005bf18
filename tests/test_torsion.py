import random
from fractions import Fraction

import pytest

from spinetorsion.complexes import (CellComplexX, GroupData, Representation,
                                    SpiderAnchors, TwistedComplex)
from spinetorsion.errors import BasisRankMismatch, NotAcyclicNoBasis
from spinetorsion.fields import CyclotomicField, FunctionField, LaurentPoly
from spinetorsion.spinefile import parse
from spinetorsion.torsion import (HomologicalOrientation, TorsionValue,
                                  auto_twisted_homology,
                                  default_rational_homology,
                                  default_z_character, fox_alexander,
                                  sign_refined_torsion, torsion,
                                  twisted_h1_order)

from fixtures import GOLDEN, ONE_TET


def build(s, kind, order=None):
    X = CellComplexX(s)
    G = GroupData(X)
    A = SpiderAnchors(s, X)
    if kind == "trivial":
        rep = Representation.trivial(G)
    elif kind == "free_abelian":
        rep = Representation.free_abelian(G)
    else:
        rep = Representation.cyclic(G, order)
    return X, G, TwistedComplex(s, X, A, rep)


def test_not_acyclic_without_basis_raises():
    s = parse(ONE_TET)
    _X, _G, tc = build(s, "trivial")
    with pytest.raises(NotAcyclicNoBasis):
        torsion(tc)


def test_wrong_basis_rank_rejected():
    s = parse(ONE_TET)
    _X, _G, tc = build(s, "trivial")
    with pytest.raises(BasisRankMismatch):
        torsion(tc, h={0: [[tc.field.one]]})


def test_trivial_rep_default_homology_gives_nonzero_rational(corpus12):
    for s in corpus12[:8]:
        _X, _G, tc = build(s, "trivial")
        value = torsion(tc, h="auto")
        q = value.value.as_fraction()
        assert q != 0


def test_pivot_strategy_independence(corpus12):
    rnd = random.Random(4)
    for s in corpus12[:8]:
        X, _G, tc = build(s, "free_abelian")
        lifts = auto_twisted_homology(tc)
        h = lifts if lifts else None
        base = torsion(tc, h=h)
        for _ in range(2):
            strat = {}
            for i, ncols in ((1, X.n_edges), (2, X.n_faces), (3, X.n_tets)):
                order = list(range(ncols))
                rnd.shuffle(order)
                strat[i] = order
            assert torsion(tc, h=h, strategy=strat) == base


def test_cell_order_permutation_flips_at_most_sign(corpus12):
    rnd = random.Random(6)
    for s in corpus12[:6]:
        _X, _G, tc = build(s, "free_abelian")
        lifts = auto_twisted_homology(tc)
        h = lifts if lifts else None
        base = torsion(tc, h=h)
        raw = torsion(tc, h=h, keep_sign=True)
        seen_flip = False
        for _ in range(4):
            sig = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)}
            assert torsion(tc, h=h, sigma=sig) == base
            other = torsion(tc, h=h, sigma=sig, keep_sign=True)
            if not other.value == raw.value:
                seen_flip = True
                assert other.value == -raw.value
        del seen_flip


def test_sign_refined_is_sigma_invariant(corpus12):
    rnd = random.Random(7)
    for s in corpus12[:6]:
        _X, _G, tc = build(s, "free_abelian")
        lifts = auto_twisted_homology(tc)
        h = lifts if lifts else None
        ref = sign_refined_torsion(s, tc, h=h)
        assert ref.sign_fixed
        for _ in range(3):
            sig = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)}
            other = sign_refined_torsion(s, tc, h=h, sigma=sig)
            assert other.value == ref.value


def test_sign_refined_same_magnitude(corpus12):
    for s in corpus12[:6]:
        _X, _G, tc = build(s, "free_abelian")
        lifts = auto_twisted_homology(tc)
        h = lifts if lifts else None
        plain = torsion(tc, h=h)
        refined = sign_refined_torsion(s, tc, h=h)
        assert plain.equal_up_to_sign(refined)


def test_orientation_flip_negates_value():
    s = parse(GOLDEN)
    _X, _G, tc = build(s, "free_abelian")
    lifts = auto_twisted_homology(tc)
    h = lifts if lifts else None
    rat = CellComplexX(s)
    bases = default_rational_homology(rat)
    ref = sign_refined_torsion(s, tc, h=h, orientation=HomologicalOrientation(bases))
    # flip one basis vector in an odd degree with nonzero homology
    flipped = [list(map(list, b)) for b in bases]
    odd = next(i for i in (1, 3) if bases[i])
    flipped[odd][0] = [-x for x in flipped[odd][0]]
    other = sign_refined_torsion(s, tc, h=h,
                                 orientation=HomologicalOrientation(flipped))
    assert other.value == -ref.value


def test_acyclic_instances_have_zero_quotient_euler_characteristic(corpus12):
    # An acyclic complex of free modules has zero alternating rank sum, so
    # chi of the quotient complex vanishes (equivalently chi of the spine
    # is 1).  Exercised over every representation kind on the corpus.
    seen = 0
    for s in corpus12:
        for kind, order in (("free_abelian", None), ("cyclic", 5)):
            _X, _G, tc = build(s, kind, order)
            try:
                value = torsion(tc)
            except NotAcyclicNoBasis:
                continue
            chi_spine, chi_x = s.euler_characteristics()
            assert chi_x == 0 and chi_spine == 1
            assert value.acyclic
            seen += 1
    assert seen > 0


def test_betti_numbers_default_homology(corpus12):
    for s in corpus12[:10]:
        X = CellComplexX(s)
        bases = default_rational_homology(X)
        assert len(bases[0]) == 1  # connected
        chi = sum((-1) ** i * len(b) for i, b in enumerate(bases))
        assert chi == s.euler_characteristics()[1]


def test_fox_trivial_group_and_free_generator():
    class FakeGroup:
        n_generators = 1
        relators = [((0, 1),)]
    poly = fox_alexander(FakeGroup, [1])
    assert poly.terms == {(0,): Fraction(1)}

    class FreeGroup:
        n_generators = 1
        relators = []
    assert fox_alexander(FreeGroup, [1]).is_zero()


def test_fox_matches_twisted_h1_order(corpus12):
    checked = 0
    for s in corpus12:
        X = CellComplexX(s)
        G = GroupData(X)
        chi = default_z_character(G)
        if chi is None:
            continue
        fox = fox_alexander(G, chi)
        order = twisted_h1_order(X, G, chi)
        assert fox.terms == order.terms
        checked += 1
    assert checked >= 10


def test_default_z_character_is_surjective(corpus12):
    from math import gcd
    for s in corpus12:
        G = GroupData(CellComplexX(s))
        chi = default_z_character(G)
        if chi is None:
            assert G.free_rank == 0
            continue
        g = 0
        for v in chi:
            g = gcd(g, abs(v))
        assert g == 1
        for word in G.relators:
            total = sum(e * chi[k] for k, e in word)
            assert total == 0


def test_torsion_value_equality_semantics():
    s = parse(GOLDEN)
    _X, _G, tc = build(s, "free_abelian")
    lifts = auto_twisted_homology(tc)
    h = lifts if lifts else None
    a = torsion(tc, h=h)
    b = torsion(tc, h=h)
    assert a == b
    neg = TorsionValue(tc.field, -a.value, False, a.acyclic)
    assert neg == a  # canonical representative modulo sign


def _as_key(value):
    return (value.to_str(), value.sign_fixed, value.acyclic,
            value.homology_basis_used, value.orientation_used)


def _flip_degree0(bases):
    flipped = [list(map(list, b)) for b in bases]
    flipped[0][0] = [-x for x in flipped[0][0]]
    return HomologicalOrientation(flipped)


@pytest.mark.parametrize("kind,order", [("free_abelian", None), ("cyclic", 5)])
def test_memoised_values_match_fresh_complexes(corpus12, kind, order):
    rnd = random.Random(11)
    for s in corpus12:
        def fresh():
            return build(s, kind, order)[2]

        ref_t = _as_key(torsion(fresh(), h="auto"))
        ref_s = _as_key(sign_refined_torsion(s, fresh(), h="auto"))
        tc = fresh()
        assert _as_key(torsion(tc, h="auto")) == ref_t
        assert _as_key(sign_refined_torsion(s, tc, h="auto")) == ref_s
        assert _as_key(sign_refined_torsion(s, tc, h="auto")) == ref_s
        assert _as_key(torsion(tc, h="auto")) == ref_t
        tc = fresh()
        assert _as_key(sign_refined_torsion(s, tc, h="auto")) == ref_s
        assert _as_key(torsion(tc, h="auto")) == ref_t
        if ref_t[2]:  # acyclic
            assert _as_key(torsion(tc)) == _as_key(torsion(fresh()))
        else:
            with pytest.raises(NotAcyclicNoBasis):
                torsion(tc)

        # Other arguments after the memo is filled take the full path.
        strat = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)
                 if i}
        sig = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)}
        orientation = _flip_degree0(default_rational_homology(tc.complex))
        for kwargs in ({"strategy": strat}, {"sigma": sig},
                       {"sigma": sig, "keep_sign": True}):
            assert _as_key(torsion(tc, h="auto", **kwargs)) == \
                _as_key(torsion(fresh(), h="auto", **kwargs))
        for kwargs in ({"strategy": strat}, {"sigma": sig},
                       {"orientation": orientation}):
            assert _as_key(sign_refined_torsion(s, tc, h="auto", **kwargs)) \
                == _as_key(sign_refined_torsion(s, fresh(), h="auto", **kwargs))
        flipped = sign_refined_torsion(s, tc, h="auto", orientation=orientation)
        assert flipped.value == -sign_refined_torsion(s, tc, h="auto").value


def test_rational_complex_is_the_trivial_twisted_complex(corpus12):
    for s in corpus12:
        X, G, trivial = build(s, "trivial")
        rat = X.rational_complex
        assert rat.field == trivial.field and rat.dims == trivial.dims
        assert (rat.d1, rat.d2, rat.d3) == (trivial.d1, trivial.d2, trivial.d3)
        assert X.rational_homology == default_rational_homology(CellComplexX(s))


def test_sign_refinement_reuses_memoised_work(corpus12, monkeypatch):
    eliminations = []
    for cls in (FunctionField, CyclotomicField):
        def counting(self, *args, _original=cls._eliminate, **kwargs):
            eliminations.append(self)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "_eliminate", counting)

    def over(field):
        return sum(f is field for f in eliminations)

    for s in corpus12[::5]:
        X = CellComplexX(s)
        G = GroupData(X)
        A = SpiderAnchors(s, X)
        first = TwistedComplex(s, X, A, Representation.free_abelian(G))
        torsion(first, h="auto")
        assert over(first.field) > 0
        eliminations.clear()
        sign_refined_torsion(s, first, h="auto")
        assert over(first.field) == 0
        assert over(X.rational_complex.field) > 0
        # A second representation on the same X reuses the rational side.
        second = TwistedComplex(s, X, A, Representation.cyclic(G, 5))
        eliminations.clear()
        sign_refined_torsion(s, second, h="auto")
        assert over(X.rational_complex.field) == 0
        assert over(second.field) > 0
