import hashlib
import importlib
import random
from fractions import Fraction
from functools import partial

import pytest

from spinetorsion.complexes import (CellComplexX, GroupData, Representation,
                                    SpiderAnchors, TwistedComplex,
                                    make_representation)
from spinetorsion.errors import BasisRankMismatch, NotAcyclicNoBasis, Stuck
from spinetorsion.fields import CyclotomicField, FunctionField, RationalField
from spinetorsion.moves import push, random_walk
from spinetorsion.perms import ALL_PERMS
from spinetorsion.spinefile import parse
from spinetorsion.torsion import (TorsionValue, auto_twisted_homology,
                                  canonical_up_to_sign, sign_refined_torsion,
                                  torsion)

from fixtures import GOLDEN, ONE_TET
from oracles import (assert_chain_map, default_z_character, fox_alexander,
                     full_matrix_lifts, full_matrix_selections,
                     images_of_generators,
                     full_matrix_value, row_order_sign, sign_refined_under,
                     torsion_under, twisted_h1_order)


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
    # The b_i picked in any column order give the torsion in cell order.
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
            value = torsion_under(tc, lifts, strat, {})
            assert canonical_up_to_sign(tc.field, value) == base.value


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
            other = torsion_under(tc, lifts, {}, sig)
            assert canonical_up_to_sign(tc.field, other) == base.value
            if not other == raw.value:
                seen_flip = True
                assert other == -raw.value
        del seen_flip


def test_sign_refined_is_sigma_invariant(corpus12):
    rnd = random.Random(7)
    for s in corpus12[:6]:
        X, _G, tc = build(s, "free_abelian")
        lifts = auto_twisted_homology(tc)
        h = lifts if lifts else None
        ref = sign_refined_torsion(s, tc, h=h)
        assert ref.sign_fixed
        orientation = X.rational_complex.default_lifts
        for _ in range(3):
            sig = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)}
            other = sign_refined_under(tc, lifts, orientation, {}, sig)
            assert other == ref.value


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
    bases = CellComplexX(s).rational_complex.default_lifts
    ref = sign_refined_torsion(s, tc, h=h, orientation=bases)
    # flip one basis vector in an odd degree with nonzero homology
    flipped = {i: list(map(list, b)) for i, b in bases.items()}
    odd = next(i for i in (1, 3) if bases.get(i))
    flipped[odd][0] = [-x for x in flipped[odd][0]]
    other = sign_refined_torsion(s, tc, h=h, orientation=flipped)
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
        bases = CellComplexX(s).rational_complex.default_lifts
        assert len(bases[0]) == 1  # connected
        chi = sum((-1) ** i * len(b) for i, b in bases.items())
        assert chi == s.euler_characteristics()[1]


def test_fox_trivial_group_and_free_generator():
    class FakeGroup:
        n_generators = 1
        relators = [((0, 1),)]
    poly = fox_alexander(FakeGroup, [1])
    assert poly == {(0,): Fraction(1)}

    class FreeGroup:
        n_generators = 1
        relators = []
    assert fox_alexander(FreeGroup, [1]) == {}


class _TwoGenerators:
    n_generators = 2

    def __init__(self, relator):
        self.relators = [relator]


def _word(letters):
    """A relator word from letters x, y and their inverses X, Y."""
    return tuple(("xy".index(c.lower()), 1 if c.islower() else -1)
                 for c in letters)


@pytest.mark.parametrize("relator,character,terms", [
    # trefoil: x y x = y x y
    ("xyxYXY", [1, 1], {(0,): 1, (1,): -1, (2,): 1}),
    # figure-eight: w x w^-1 y^-1 with w = x^-1 y x y^-1
    ("XyxY" + "x" + "yXYx" + "Y", [1, 1], {(0,): 1, (1,): -3, (2,): 1}),
    # trefoil as x^2 = y^3: the minors 1 + t^3 and -(t^-2 + t^-4 + t^-6)
    # differ, and only their gcd is t^2 - t + 1
    ("xxYYY", [3, 2], {(0,): 1, (1,): -1, (2,): 1}),
])
def test_fox_alexander_of_knot_groups(relator, character, terms):
    poly = fox_alexander(_TwoGenerators(_word(relator)), character)
    assert poly == terms


def test_twisted_h1_order_rejects_zero_character():
    X = CellComplexX(parse(GOLDEN))
    G = GroupData(X)
    with pytest.raises(ValueError):
        twisted_h1_order(X, G, [0] * G.n_generators)


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
        assert fox == order
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
    flipped = {i: list(map(list, b)) for i, b in bases.items()}
    flipped[0][0] = [-x for x in flipped[0][0]]
    return flipped


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

        # Other arguments after the memo is filled take the full path, and
        # the memoised values are those of any b_i and cell order.
        strat = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)
                 if i}
        sig = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)}
        default = tc.complex.rational_complex.default_lifts
        orientation = _flip_degree0(default)
        lifts = tc.default_lifts
        for kwargs in ({"h": lifts or None},
                       {"h": lifts or None, "keep_sign": True}):
            assert _as_key(torsion(tc, **kwargs)) == \
                _as_key(torsion(fresh(), **kwargs))
        assert _as_key(sign_refined_torsion(s, tc, h="auto",
                                            orientation=orientation)) == \
            _as_key(sign_refined_torsion(s, fresh(), h="auto",
                                         orientation=orientation))
        raw = torsion(tc, h="auto", keep_sign=True).value
        assert torsion_under(tc, lifts, strat, sig) == \
            (raw if row_order_sign(sig) > 0 else -raw)
        for olifts, kwargs in ((default, {}),
                               (orientation, {"orientation": orientation})):
            assert sign_refined_under(tc, lifts, olifts, strat, sig) == \
                sign_refined_torsion(s, tc, h="auto", **kwargs).value
        flipped = sign_refined_torsion(s, tc, h="auto", orientation=orientation)
        assert flipped.value == -sign_refined_torsion(s, tc, h="auto").value


def test_rational_complex_is_the_trivial_twisted_complex(corpus12):
    for s in corpus12:
        X, G, trivial = build(s, "trivial")
        rat = X.rational_complex
        assert rat.field == trivial.field and rat.dims == trivial.dims
        assert (rat.d1, rat.d2, rat.d3) == (trivial.d1, trivial.d2, trivial.d3)
        assert trivial.passes is rat.passes


@pytest.mark.parametrize("kind,order", [
    ("trivial", None), ("free_abelian", None), ("cyclic", 1), ("cyclic", 5),
    ("cyclic", 12)])
def test_trivial_twisted_torsion_is_the_rational_torsion(corpus12, kind,
                                                         order):
    # A representation whose images are all 1 maps into Q, and its torsion
    # under the auto lifts and under given ones is the rational torsion
    # under the same lifts.  Embedded into Q(zeta_n), it is what the
    # all-ones character into Q(zeta_n) gives, whose TwistedComplex builds
    # and eliminates its own entries: the same printed strings.
    checked = 0
    for s in corpus12:
        X, G, tc = build(s, kind, order)
        trivial = all(x == tc.field.one for x in images_of_generators(tc.rep))
        assert (tc.rep.field == RationalField()) == trivial
        if not trivial:
            continue
        rat = X.rational_complex
        C = CyclotomicField(order or 1)
        ones = TwistedComplex(s, X, SpiderAnchors(s, X), Representation(
            G, C, [(0,)] * G.n_generators, "cyclic"))

        def embedded(lifts):
            return {i: [[C.from_fraction(x.q) for x in vec] for vec in vecs]
                    for i, vecs in lifts.items()}
        scaled = {i: [[x * rat.field.from_fraction(Fraction((-1) ** i * (k + 2), i + 3))
                       for x in vec] for k, vec in enumerate(vecs)]
                  for i, vecs in rat.default_lifts.items()}
        assert tc.default_lifts == rat.default_lifts
        assert ones.default_lifts == embedded(rat.default_lifts)
        for h, ones_h in (("auto", "auto"), (scaled, embedded(scaled))):
            value = torsion(tc, h=h, keep_sign=True)
            assert value.value == torsion(rat, h=h, keep_sign=True).value
            expected = C.from_fraction(value.value.q)
            assert torsion(ones, h=ones_h, keep_sign=True).value == expected
            assert value.to_str() == C.element_str(expected)
        for refine in (torsion, partial(sign_refined_torsion, s)):
            value = refine(tc, h="auto")
            assert value.to_str() == refine(ones, h="auto").to_str()
            assert value.to_str() == C.element_str(
                C.from_fraction(value.value.q))
        checked += 1
    assert checked == {"trivial": 50, "free_abelian": 27, 1: 50, 5: 27,
                       12: 23}[order or kind]


def _eliminated(cx):
    """The degrees of the default pass of ``cx`` that take an elimination:
    each of 1 and 2 unless its free rows R_i are exactly one.  Degree 0 is
    the one row of d1, whose minor ``select_minor`` reads off the row."""
    selections = cx.default_pass[0]
    return sum(cx.dims[i] - len(selections[i]) != 1 for i in (1, 2))


def test_sign_refinement_reuses_memoised_work(corpus12, monkeypatch):
    eliminations = []
    for cls in (FunctionField, CyclotomicField, RationalField):
        def counting(self, *args, _original=cls._eliminate, **kwargs):
            eliminations.append(self)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "_eliminate", counting)

    def over(field):
        return sum(f is field for f in eliminations)

    per_pass = set()
    for s in corpus12[::5]:
        X = CellComplexX(s)
        G = GroupData(X)
        A = SpiderAnchors(s, X)
        rat = X.rational_complex
        first = TwistedComplex(s, X, A, Representation.free_abelian(G))
        torsion(first, h="auto")
        assert over(first.field) == _eliminated(first)
        per_pass.add(over(first.field))
        eliminations.clear()
        sign_refined_torsion(s, first, h="auto")
        assert over(first.field) == 0
        # A complex over Q shares its spine's rational pass.
        assert over(rat.field) == (0 if first.field is rat.field
                                 else _eliminated(rat))
        # A second representation on the same X reuses the rational side.
        second = TwistedComplex(s, X, A, Representation.cyclic(G, 5))
        eliminations.clear()
        sign_refined_torsion(s, second, h="auto")
        assert over(rat.field) == 0
        assert over(second.field) == (0 if second.field is rat.field
                                    else _eliminated(second))
        assert (first.field is rat.field) == (first.field == RationalField())
        assert (second.field is rat.field) == (second.field == RationalField())
    assert per_pass == {1, 2}  # never 3: degree 0 is one row


def test_trivial_representations_share_one_rational_pass(corpus12,
                                                          monkeypatch):
    # Torsion and sign-refined torsion under every representation whose
    # images are all 1 take one rational default pass per spine in all.
    torsion_module = importlib.import_module("spinetorsion.torsion")
    passes = []

    def counted(cx, lifts="auto", _original=torsion_module.selection_pass):
        passes.append((cx, lifts))
        return _original(cx, lifts)
    monkeypatch.setattr(torsion_module, "selection_pass", counted)
    trivial = 0
    for s in corpus12:
        X = CellComplexX(s)
        G = GroupData(X)
        A = SpiderAnchors(s, X)
        passes.clear()
        for kind, order in (("trivial", None), ("free_abelian", None),
                            ("cyclic", 1), ("cyclic", 5), ("cyclic", 12)):
            rep = make_representation(G, kind, order)
            if rep.field != RationalField():
                continue
            trivial += 1
            tc = TwistedComplex(s, X, A, rep)
            assert (tc.d1, tc.d2, tc.d3) == (X.rational_complex.d1,
                                             X.rational_complex.d2,
                                             X.rational_complex.d3)
            torsion(tc, h="auto")
            sign_refined_torsion(s, tc, h="auto")
        assert [lifts for _cx, lifts in passes] == ["auto"]
        assert passes[0][0].passes is X.rational_complex.passes
    assert trivial == 50 + 27 + 50 + 27 + 23


def test_trivial_complexes_share_the_rational_lifts(corpus12, monkeypatch):
    # A TwistedComplex over Q reads its default lifts off the rational
    # complex: none at construction, and one nullspace per positive degree
    # with lifts, however many trivial complexes and the rational one read
    # them.
    kernels = []

    def counted(self, matrix, _original=RationalField.nullspace):
        kernels.append(len(matrix))
        return _original(self, matrix)
    monkeypatch.setattr(RationalField, "nullspace", counted)
    for s in corpus12:
        X = CellComplexX(s)
        G = GroupData(X)
        A = SpiderAnchors(s, X)
        kernels.clear()
        trivial = [TwistedComplex(s, X, A, rep) for rep in (
            make_representation(G, "trivial"), make_representation(G, "cyclic", 1))]
        assert kernels == []
        for tc in trivial:
            assert tc.default_lifts is X.rational_complex.default_lifts
        lifts = X.rational_complex.default_lifts
        assert len(kernels) == sum(1 for i in lifts if i)
        if G.free_rank:  # a twisting complex keeps lifts of its own
            tc = TwistedComplex(s, X, A, make_representation(G, "free_abelian"))
            assert tc.default_lifts is not lifts


# sha256 of the element strings of torsion outputs over census <= 2 for both
# representations, as the full change-of-basis matrices gave them when pinned;
# the lines under random b_i and cell orders come from those matrices.
TORSION_DIGEST = "12c172f9b5f1934c1ce2c850c8720efddbcdccfac5254849f027bf1d780ccf24"


def test_torsion_outputs_are_pinned(corpus12):
    rnd = random.Random(10)
    lines = []
    for s in corpus12:
        for kind, order in (("free_abelian", None), ("cyclic", 5)):
            tc = build(s, kind, order)[2]
            field = tc.field
            lines += [kind, torsion(tc, h="auto").to_str(),
                      torsion(tc, h="auto", keep_sign=True).to_str(),
                      sign_refined_torsion(s, tc, h="auto").to_str()]
            for i, vecs in sorted(tc.default_lifts.items()):
                lines += ["%d: [%s]" % (i, ", ".join(map(field.element_str, v)))
                          for v in vecs]
            strat = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)
                     if i}
            sig = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)}
            orientation = tc.complex.rational_complex.default_lifts
            for order in ((strat, {}), ({}, sig), (strat, sig)):
                lines += [field.element_str(v) for v in (
                    torsion_under(tc, tc.default_lifts, *order),
                    sign_refined_under(tc, tc.default_lifts, orientation,
                                       *order))]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == TORSION_DIGEST, text


def _random_lifts(tc, rnd):
    """The default lifts, each scaled and moved by random boundaries; now and
    then one replaced by a boundary or by another lift, which is no basis."""
    field = tc.field
    mats = (tc.d1, tc.d2, tc.d3)
    out = {}
    for i, vecs in tc.default_lifts.items():
        out[i] = []
        for v in vecs:
            c = field.from_fraction(Fraction(rnd.choice((-2, -1, 1, 2)),
                                             rnd.choice((1, 2))))
            w = [c * x for x in v]
            for j in range(tc.dims[i + 1] if i < 3 else 0):
                a = field.from_int(rnd.randint(-1, 1))
                w = [x + a * mats[i][r][j] for r, x in enumerate(w)]
            out[i].append(w)
        if rnd.random() < 0.1 and i < 3:
            j = rnd.randrange(tc.dims[i + 1])
            out[i][-1] = [row[j] for row in mats[i]]
        elif rnd.random() < 0.1 and len(vecs) > 1:
            out[i][-1] = out[i][0]
    return out


@pytest.mark.parametrize("kind,order", [("free_abelian", None), ("cyclic", 5)])
def test_minors_match_full_matrix_oracle(corpus12, kind, order):
    rnd = random.Random(13)
    outcomes = set()
    for s in corpus12:
        tc = build(s, kind, order)[2]
        assert tc.default_lifts == full_matrix_lifts(tc)
        for _ in range(4):
            strat = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)
                     if i and rnd.random() < 0.7}
            sig = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)
                   if rnd.random() < 0.7}
            lifts = _random_lifts(tc, rnd)
            expected = torsion_under(tc, lifts, strat, sig)
            outcomes.add(expected is None)
            if expected is None:
                with pytest.raises(BasisRankMismatch, match="not a basis"):
                    torsion(tc, h=lifts or None, keep_sign=True)
            else:
                value = torsion(tc, h=lifts or None, keep_sign=True).value
                assert value == (expected if row_order_sign(sig) > 0
                                 else -expected)
    assert outcomes == {True, False}


@pytest.fixture(scope="module")
def walk_spines(census2):
    """Six-tetrahedron spines at the end of walks from census-2 starts; some
    of their complexes have homology in degree 1, some in degree 2."""
    return [random_walk(census2[i], 6, seed=i, max_tets=6)[-1].after
            for i in (0, 9, 33, 36)]


def _oracle_complexes(s):
    """The rational complex and the free-abelian, cyclic:3 and cyclic:5
    twisted complexes of the spine ``s``."""
    X = CellComplexX(s)
    G = GroupData(X)
    A = SpiderAnchors(s, X)
    return [X.rational_complex,
            TwistedComplex(s, X, A, Representation.free_abelian(G))] + [
        TwistedComplex(s, X, A, Representation.cyclic(G, order))
        for order in (3, 5)]


def test_selections_and_default_torsion_match_full_matrices(corpus12,
                                                            walk_spines):
    rnd = random.Random(17)
    walk_homology = set()
    for s in corpus12 + walk_spines:
        for tc in _oracle_complexes(s):
            full = full_matrix_selections(tc, {})
            assert tc.default_pass[0] == full
            lifts = full_matrix_lifts(tc)
            assert tc.default_lifts == lifts
            raw = tc.default_pass[3]
            assert raw == full_matrix_value(tc, full, lifts, {})
            for _ in range(2):
                strat = {i: rnd.sample(range(n), n)
                         for i, n in enumerate(tc.dims) if i}
                assert torsion_under(tc, lifts, strat, {}) == raw
            if s in walk_spines:
                walk_homology.update(lifts)
    assert {1, 2} <= walk_homology


def test_default_torsion_reads_no_kernel(corpus12, monkeypatch):
    # Nor a determinant: the default bases read their minors off the
    # selection and lift passes.
    calls = []
    for cls in (FunctionField, CyclotomicField, RationalField):
        for name in ("nullspace", "det"):
            def counting(self, matrix, _original=getattr(cls, name),
                         _name=name):
                calls.append((self, _name))
                return _original(self, matrix)
            monkeypatch.setattr(cls, name, counting)

    complexes = []
    for s in corpus12:
        for kind, order in (("free_abelian", None), ("cyclic", 5)):
            tc = build(s, kind, order)[2]
            torsion(tc, h="auto")
            sign_refined_torsion(s, tc, h="auto")
            complexes.append(tc)
    assert calls == []
    # The kernel is read where the lift vectors are.
    assert [tc.default_lifts for tc in complexes] and calls


def _recombined(tc, lifts, rnd):
    """The lifts of each degree mixed by a random invertible matrix, each
    new vector c_j * (v_j + sum over l < j of a_jl * v_l) with c_j a
    nonzero rational, the vectors then shuffled and moved by random
    boundaries: a basis of the same homology."""
    field = tc.field
    mats = (tc.d1, tc.d2, tc.d3)
    out = {}
    for i, vecs in lifts.items():
        mixed = []
        for j, v in enumerate(vecs):
            w = list(v)
            for u in vecs[:j]:
                a = field.from_int(rnd.randint(-2, 2))
                w = [x + a * y for x, y in zip(w, u)]
            c = field.from_fraction(Fraction(rnd.choice((-2, -1, 1, 3)),
                                             rnd.choice((1, 2))))
            mixed.append([c * x for x in w])
        rnd.shuffle(mixed)
        for k, w in enumerate(mixed):
            for j in range(tc.dims[i + 1] if i < 3 else 0):
                if rnd.random() < 0.3:
                    a = field.from_int(rnd.choice((-1, 1)))
                    w = [x + a * mats[i][r][j] for r, x in enumerate(w)]
            mixed[k] = w
        out[i] = mixed
    return out


def test_given_lift_pass_matches_full_matrices(corpus12, walk_spines):
    # One elimination of [rows R_i of d_{i+1} | lifts on R_i] per degree
    # gives the selections, the Betti numbers and the minors, under any
    # column order: against the full n_i x n_i determinants.
    rnd = random.Random(37)
    mixed_degrees = set()
    for s in corpus12 + walk_spines:
        for tc in _oracle_complexes(s):
            lifts = tc.default_lifts
            mixed = _recombined(tc, lifts, rnd)
            mixed_degrees.update(i for i, v in mixed.items() if len(v) > 1)
            for h in (lifts, mixed):
                strat = {i: rnd.sample(range(n), n)
                         for i, n in enumerate(tc.dims) if i}
                for strategy in ({}, strat):
                    expected = torsion_under(tc, h, strategy, {})
                    assert expected is not None
                    assert torsion(tc, h=h or None,
                                   keep_sign=True).value == expected
    assert mixed_degrees  # some degree mixes two or more lifts


def _lift_errors(tc, rnd):
    """(lifts, message) pairs: lifts that are no basis, with the message
    that ``torsion`` raises for them."""
    field = tc.field
    lifts = tc.default_lifts
    mats = (tc.d1, tc.d2, tc.d3)
    cases = []
    for i, vecs in lifts.items():
        b = len(vecs)
        rank = "degree %d: homology rank %d but %d basis vectors"
        cases += [({**lifts, i: vecs + vecs[:1]}, rank % (i, b, b + 1)),
                  ({**lifts, i: vecs[:-1]}, rank % (i, b, b - 1)),
                  ({**lifts, i: [v[:-1] for v in vecs]},
                   "degree %d lift has wrong length" % i),
                  ({**lifts, i: [v + [field.zero] for v in vecs]},
                   "degree %d lift has wrong length" % i)]
        dependent = [field.zero] * tc.dims[i]
        if b > 1:
            dependent = vecs[0]
        elif i < 3 and tc.dims[i + 1]:
            j = rnd.randrange(tc.dims[i + 1])
            dependent = [row[j] for row in mats[i]]
        cases.append(({**lifts, i: vecs[:-1] + [dependent]},
                      "degree %d: combined columns are not a basis" % i))
    betti0 = [i for i in range(4) if i not in lifts]
    if betti0:
        i = betti0[0]
        cases.append(({**lifts, i: [[field.one] * tc.dims[i]]},
                      "degree %d: homology rank 0 but 1 basis vectors" % i))
    return cases


def test_bad_given_lifts_raise_as_before(corpus12, walk_spines):
    rnd = random.Random(41)
    messages = set()
    for s in corpus12[::3] + walk_spines:
        for tc in _oracle_complexes(s):
            if not tc.default_lifts:
                # Lifts given to an acyclic complex are checked too.
                junk = {1: [[tc.field.one]], 3: [[]]}
                with pytest.raises(BasisRankMismatch) as exc:
                    torsion(tc, h=junk, keep_sign=True)
                assert str(exc.value) == \
                    "degree 1: homology rank 0 but 1 basis vectors"
                messages.add("acyclic")
                continue
            strat = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)
                     if i}
            for lifts, message in _lift_errors(tc, rnd):
                with pytest.raises(BasisRankMismatch) as exc:
                    torsion(tc, h=lifts)
                assert str(exc.value) == message
                if "combined" in message:  # no basis in any column order
                    assert torsion_under(tc, lifts, strat, {}) is None
                messages.add(message.split()[2])
    assert messages == {"homology", "lift", "combined", "acyclic"}


def test_one_elimination_per_degree(corpus12, walk_spines, monkeypatch):
    # torsion on a fresh complex eliminates once per degree 0..2, auto lifts
    # or given, and once more for given lifts of H_3.
    from spinetorsion import fields
    count = []
    original = fields._Field._eliminate

    def counting(self, *args, **kwargs):
        count.append(self)
        return original(self, *args, **kwargs)

    homology = 0
    for s in corpus12 + walk_spines:
        lifts = [tc.default_lifts for tc in _oracle_complexes(s)]
        monkeypatch.setattr(fields._Field, "_eliminate", counting)
        for tc in _oracle_complexes(s):
            count.clear()
            torsion(tc, h="auto")
            assert len(count) <= 3
        for tc, h in zip(_oracle_complexes(s), lifts):
            count.clear()
            torsion(tc, h=h or None)
            assert len(count) <= 3 + (3 in h)
            homology += bool(h)
        monkeypatch.undo()
    assert homology


def _relabelled(s, rnd):
    """A seeded relabelling of the spine ``s`` and its cell map, in the shape
    of ``MoveInstance.cells``: per degree, the new index of each old cell.
    An edge class goes where the first edge of its fan goes, a face class
    (t, f) to (tets[t], rho_t(f)), a tetrahedron t to tets[t]; every cell
    keeps its orientation."""
    n = s.tet_count
    tets = rnd.sample(range(n), n)
    perms = [rnd.choice(ALL_PERMS) for _ in range(n)]
    other = s.relabel(tets, perms)
    old, new = s.triangulation, other.triangulation
    edges = [new.edge_class_of(tets[t], perms[t][i], perms[t][j])[0]
             for t, i, j in (fan[0][:3] for fan in old.edge_classes)]
    faces = [new.face_class_of[tets[t]][perms[t][f]]
             for (t, f), _ in old.face_classes]
    return other, ([0], edges, faces, tets)


def test_relabelling_cell_maps_are_chain_maps(corpus3):
    # The relabellings of test_relabelling_carries_torsion: each cell map is
    # a bijection in every degree and commutes with d2 and d3, without signs.
    rnd = random.Random(43)
    for s in corpus3:
        for other, cells in [_relabelled(s, rnd) for _ in range(2)]:
            assert_chain_map(s.complex, other.complex, cells)
            sizes = (1, len(other.triangulation.edge_classes),
                     len(other.triangulation.face_classes), other.tet_count)
            assert [sorted(c) for c in cells] == [list(range(k)) for k in sizes]


def test_relabelling_carries_torsion(corpus3):
    # On a relabelled spine, with the representation carried by the
    # edge-class correspondence, the acyclic torsion prints the same, and
    # so does the sign-refined value under the orientation carried by the
    # cell correspondence; the default orientation, read off the cell
    # labels, flips the sign of some.
    rnd = random.Random(43)
    pairs = flips = 0
    for s in corpus3:
        relabellings = [_relabelled(s, rnd) for _ in range(2)]
        X = CellComplexX(s)
        G = GroupData(X)
        A = SpiderAnchors(s, X)
        for kind, order in (("free_abelian", None), ("cyclic", 3),
                            ("cyclic", 5), ("cyclic", 7)):
            rep = make_representation(G, kind, order)
            tc = TwistedComplex(s, X, A, rep)
            try:
                value = torsion(tc).to_str()
            except NotAcyclicNoBasis:
                continue
            refined = sign_refined_torsion(s, tc).to_str()
            orientation = X.rational_complex.default_lifts
            for other, cells in relabellings:
                Y = CellComplexX(other)
                carried = Representation(GroupData(Y), rep.field,
                                         push(cells[1], rep.exponents, None,
                                              len(rep.exponents)),
                                         rep.kind)
                otc = TwistedComplex(other, Y, SpiderAnchors(other, Y), carried)
                assert torsion(otc).to_str() == value
                moved = {i: [push(cells[i], v, None, len(v)) for v in vecs]
                         for i, vecs in orientation.items()}
                assert sign_refined_torsion(
                    other, otc, orientation=moved).to_str() == refined
                flips += sign_refined_torsion(other, otc).to_str() != refined
                pairs += 1
    assert pairs == 76 and flips, flips


# -- large inputs: walk spines of 10-14 tetrahedra, high cyclic orders ------------


def _walk_spines(census2):
    """Four spines of 10-14 tetrahedra for each H1 free rank 0, 1 and 2 of
    the start: the first of each size on seeded 14-step h-null walks from
    census-2 starts of that rank, taken in order."""
    out = []
    for rank in (0, 1, 2):
        mine = []
        for i, s in enumerate(census2):
            if s.group.free_rank != rank or len(mine) >= 4:
                continue
            try:
                walk = random_walk(s, 14, 1000 + i, h_null_only=True, max_tets=14)
            except Stuck:
                continue
            first = {}
            for move in walk:
                if move.after.tet_count >= 10:
                    first.setdefault(move.after.tet_count, move.after)
            mine += [first[n] for n in sorted(first)]
        out += mine[:4]
    return out


def _torsion_lines(spines, kind, order):
    lines = []
    for s in spines:
        tc = build(s, kind, order)[2]
        lines += [torsion(tc, h="auto").to_str(),
                  sign_refined_torsion(s, tc, h="auto").to_str()]
    return lines


# sha256 of the torsion and sign-refined torsion strings, as first printed.
LARGE_INPUT_DIGESTS = {
    "walk free_abelian": "b0c5ce5b221eb171c706e10e743dc2f02672d025fc632d1f3860857883a04e17",
    "walk cyclic:5": "89c701e510fd1f3dc7d2285fc9485cc422b7e489c302ca609aa8d3fadfea9b33",
    "census2 cyclic:31": "55d050e3818a133df45bb02ed5ce97133c91f618197f623882894b9234069488",
    "census2[3:6] cyclic:97": "a99204a962cc350168d1956dde4fc312f2b9d3d8b42d13032fed3a8fdd7e45b4",
}


def test_large_input_torsion_is_pinned(census2):
    walk = _walk_spines(census2)
    assert len(walk) == 12 and all(10 <= s.tet_count <= 14 for s in walk)
    runs = {"walk free_abelian": (walk, "free_abelian", None),
            "walk cyclic:5": (walk, "cyclic", 5),
            "census2 cyclic:31": (census2, "cyclic", 31),
            "census2[3:6] cyclic:97": (census2[3:6], "cyclic", 97)}
    for name, (spines, kind, order) in runs.items():
        text = "\n".join(_torsion_lines(spines, kind, order))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            LARGE_INPUT_DIGESTS[name], (name, text)
