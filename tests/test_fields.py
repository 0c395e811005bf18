import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinetorsion import fields, polygcd
from spinetorsion.complexes import CellComplexX, GroupData
from spinetorsion.fields import (CyclotomicElement, CyclotomicField,
                                 FunctionField, RationalField,
                                 RationalFunction, cyclotomic_polynomial)

from oracles import cofactor_det, default_z_character, fox_alexander


def rand_element(field, rnd, nterms=3, span=2):
    terms = {}
    for _ in range(nterms):
        key = tuple(rnd.randint(-span, span) for _ in range(field.nvars))
        terms[key] = Fraction(rnd.randint(-3, 3))
    p = {k: v for k, v in terms.items() if v}
    return RationalFunction(field.nvars, p or {(0,) * field.nvars: 1})


def test_rational_function_canonical_reduction():
    F = FunctionField(1)
    t = F.monomial((1,))
    one = F.one
    a = (t * t - one) / (t - one)
    assert a == t + one
    b = (t - one) / (t * t - one)
    assert b == (t + one).inv()
    # monomial units move to the numerator; denominators are primitive
    c = F.monomial((-3,)) / (t - one)
    assert tuple(map(min, zip(*c.den))) == (0,)
    assert fields._normal(c.den)[1] == 1


def test_field_axioms_function_field():
    rnd = random.Random(0)
    F = FunctionField(2)
    for _ in range(20):
        a, b, c = (rand_element(F, rnd) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        if not a.is_zero():
            assert a * a.inv() == F.one
        assert a - a == F.zero


def test_bareiss_matches_cofactor_up_to_size_five():
    rnd = random.Random(1)
    F = FunctionField(2)
    for n in range(1, 6):
        for _ in range(3):
            M = [[rand_element(F, rnd, nterms=2, span=1) for _ in range(n)]
                 for _ in range(n)]
            assert F.det(M) == cofactor_det(F, M)
    C = CyclotomicField(5)
    for n in range(1, 6):
        M = [[C.zeta((i * j + i + n) % 5) for j in range(n)] for i in range(n)]
        assert C.det(M) == cofactor_det(C, M)


def test_nullspace_and_solve_function_field():
    rnd = random.Random(2)
    F = FunctionField(2)
    for _ in range(5):
        m, n = rnd.randint(1, 3), rnd.randint(1, 4)
        A = [[rand_element(F, rnd, nterms=2, span=1) for _ in range(n)]
             for _ in range(m)]
        for v in F.nullspace(A):
            for row in A:
                acc = F.zero
                for a, x in zip(row, v):
                    acc = acc + a * x
                assert acc.is_zero()
        x = [rand_element(F, rnd, nterms=1) for _ in range(n)]
        rhs = []
        for row in A:
            acc = F.zero
            for a, xx in zip(row, x):
                acc = acc + a * xx
            rhs.append(acc)
        sol = F.solve(A, rhs)
        assert sol is not None
        for row, b in zip(A, rhs):
            acc = F.zero
            for a, xx in zip(row, sol):
                acc = acc + a * xx
            assert acc == b


def test_rows_repeating_one_element_object():
    F = FunctionField(1)
    t_plus_1 = F.monomial((1,)) + F.one
    x = F.one / t_plus_1
    M = [[x, x], [F.one, F.zero]]
    assert F.det(M) == cofactor_det(F, M) == -x
    assert F.solve([[x, x]], [F.one]) == [t_plus_1, F.zero]


# -- properties of the elimination engines ------------------------------------

# Phi_n of degree 1, 2, 2, 4 and 4, prime and composite n.
FIELDS = (RationalField(), FunctionField(0), FunctionField(1), FunctionField(2),
          CyclotomicField(1), CyclotomicField(3), CyclotomicField(4),
          CyclotomicField(5), CyclotomicField(12))
SMALL = st.integers(-2, 2)
# Mostly integers; halves and thirds make the engines clear row contents.
COEFFS = st.builds(Fraction, SMALL, st.sampled_from((1, 1, 1, 2, 3)))


@st.composite
def elements(draw, field):
    if isinstance(field, RationalField):
        return field.from_fraction(draw(COEFFS))
    if isinstance(field, CyclotomicField):
        coeffs = draw(st.lists(COEFFS, min_size=field.degree,
                               max_size=field.degree))
        return CyclotomicElement(field, coeffs)

    def poly(span):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(*span)] * field.nvars), COEFFS,
            max_size=2))
        return {k: v for k, v in terms.items() if v}
    num, den = poly((-1, 1)), poly((0, 1))
    return RationalFunction(field.nvars, num, den or None)


@st.composite
def matrices(draw, square=False):
    """A field and a matrix of up to 4 x 4 entries drawn from a small pool
    of element objects, so rows often repeat one object."""
    field = draw(st.sampled_from(FIELDS))
    pool = draw(st.lists(elements(field), min_size=1, max_size=3))
    pool.append(field.zero)
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 4))
    index = st.integers(0, len(pool) - 1)
    rows = draw(st.lists(st.lists(index, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return field, [[pool[k] for k in row] for row in rows]


def minor_rank(field, M):
    """Rank as the size of the largest nonzero minor, by cofactor expansion."""
    m, n = len(M), len(M[0])
    for k in range(min(m, n), 0, -1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[M[i][j] for j in cols] for i in rows]
                if not cofactor_det(field, sub).is_zero():
                    return k
    return 0


def apply(field, M, x):
    out = []
    for row in M:
        acc = field.zero
        for a, b in zip(row, x):
            acc = acc + a * b
        out.append(acc)
    return out


@settings(max_examples=30, deadline=None)
@given(matrices(square=True))
def test_det_matches_cofactor(field_and_matrix):
    field, M = field_and_matrix
    assert field.det(M) == cofactor_det(field, M)


@settings(max_examples=30, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_select_columns_is_greedy(field_and_matrix, rnd):
    field, M = field_and_matrix
    order = list(range(len(M[0])))
    rnd.shuffle(order)
    kept = []
    for j in order:
        trial = kept + [j]
        if minor_rank(field, [[row[c] for c in trial] for row in M]) > len(kept):
            kept.append(j)
    assert field.select_columns(M, order) == kept
    assert field.rank(M) == len(kept)
    square = len(kept) == len(M)
    assert field.select_minor(M, order) == (kept, cofactor_det(
        field, [[row[c] for c in kept] for row in M]) if square else field.zero)


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_nullspace_is_annihilated(field_and_matrix):
    field, M = field_and_matrix
    basis = field.nullspace(M)
    assert len(basis) == len(M[0]) - minor_rank(field, M)
    for v in basis:
        assert all(y.is_zero() for y in apply(field, M, v))


@settings(max_examples=30, deadline=None)
@given(matrices(), st.data())
def test_solve_exactly_when_consistent(field_and_matrix, data):
    field, M = field_and_matrix
    if data.draw(st.booleans()):
        x = data.draw(st.lists(elements(field), min_size=len(M[0]),
                               max_size=len(M[0])))
        rhs = apply(field, M, x)
    else:
        rhs = data.draw(st.lists(elements(field), min_size=len(M),
                                 max_size=len(M)))
    augmented = [row + [b] for row, b in zip(M, rhs)]
    consistent = minor_rank(field, augmented) == minor_rank(field, M)
    sol = field.solve(M, rhs)
    assert (sol is not None) == consistent
    if sol is not None:
        assert apply(field, M, sol) == rhs


def test_exact_division_errors():
    one = {(0,): 1}
    with pytest.raises(ArithmeticError):
        fields._pdiv(one, {(0,): 1, (1,): -1})
    with pytest.raises(ZeroDivisionError):
        fields._pdiv(one, {})


# -- the gcd over Z[t1..tr] ---------------------------------------------------


def planted_pair(rnd, nvars, terms=(4, 5), deg=(2, 3)):
    """Two integer polynomials in ``nvars`` variables with a random common
    factor of up to terms[0] terms and degree deg[0] in each variable, and
    random cofactors of up to terms[1] terms and degree deg[1]."""
    def poly(nterms, d):
        while True:
            p = {tuple(rnd.randint(0, d) for _ in range(nvars)): rnd.randint(-9, 9)
                 for _ in range(rnd.randint(1, nterms))}
            p = {k: v for k, v in p.items() if v}
            if p:
                return p
    c = poly(terms[0], deg[0])
    return (fields._dot(((c, poly(terms[1], deg[1])),)),
            fields._dot(((c, poly(terms[1], deg[1])),)))


def proportional(p, q):
    """Whether the polynomials ``p`` and ``q`` differ by a rational factor."""
    if p.keys() != q.keys():
        return False
    k0 = next(iter(p))
    return all(p[k] * q[k0] == q[k] * p[k0] for k in p)


def quotient(f, h):
    """f / h, asserted to be a polynomial with integer coefficients."""
    q = fields._pdiv(f, h)
    assert all(e >= 0 for k in q for e in k)
    assert all(type(v) is int for v in q.values())
    return q


def test_gcd_matches_sympy_on_planted_factors():
    from sympy import ZZ
    from sympy.polys.rings import ring

    rnd = random.Random(14)
    rings = {n: ring(",".join("t%d" % (i + 1) for i in range(n)), ZZ)[0]
             for n in (1, 2, 3)}
    for i in range(300):
        nvars = 1 + i % 3
        f, g = planted_pair(rnd, nvars)
        R = rings[nvars]
        want = R.from_dict(f).gcd(R.from_dict(g))
        assert proportional(polygcd.gcd(f, g),
                            {k: int(v) for k, v in want.items()}), (f, g)


@st.composite
def planted_pairs(draw):
    nvars = draw(st.integers(1, 3))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars),
                            st.integers(-9, 9).filter(bool), min_size=1, max_size=4)
    c, a, b = draw(polys), draw(polys), draw(polys)
    return fields._dot(((c, a),)), fields._dot(((c, b),))


@settings(max_examples=60, deadline=None)
@given(planted_pairs())
def test_gcd_divides_and_leaves_coprime_cofactors(pair):
    f, g = pair
    h = polygcd.gcd(f, g)
    cofactors = quotient(f, h), quotient(g, h)
    assert list(polygcd.prs_gcd(*cofactors)) == [(0,) * len(next(iter(f)))]


def test_prs_gcd_on_small_pairs(monkeypatch):
    # The heuristic gcd almost never fails on real inputs, so the remainder
    # sequence is checked on its own, on inputs small enough for it.
    rnd = random.Random(3)
    pairs = [planted_pair(rnd, 1 + i % 3, terms=(3, 3), deg=(1, 2))
             for i in range(60)]
    for f, g in pairs:
        assert proportional(polygcd.prs_gcd(f, g), polygcd.gcd(f, g)), (f, g)
    monkeypatch.setattr(polygcd, "HEU_GCD_MAX", 0)
    for f, g in pairs[:10]:
        assert polygcd.gcd(f, g) == polygcd.prs_gcd(f, g)


def test_gcd_takes_no_monomial_unit_for_a_factor():
    # t1*t2*t3 divides both in the Laurent ring, where t3 is a unit, but t3
    # does not divide b in the polynomial ring.
    a = {(2, 1, 2): 20, (2, 1, 1): -25}
    b = {(2, 2, 2): Fraction(5, 9), (3, 2, 0): Fraction(5, 3),
         (1, 1, 1): Fraction(25, 9)}
    integral = lambda p: fields._integral([p])[0][0]
    assert list(polygcd.gcd(integral(a), integral(b))) == [(1, 1, 0)]
    assert tuple(map(min, zip(*RationalFunction(3, a, b).den))) == (0, 0, 0)


# -- the canonical form of Q(t1..tr) -------------------------------------------


def assert_normal(p):
    """``p`` has least exponent 0 in every variable, coprime integer
    coefficients and a positive leading coefficient."""
    assert all(min(col) == 0 for col in zip(*p))
    assert all(Fraction(v).denominator == 1 for v in p.values())
    assert gcd(*map(int, p.values())) == 1
    assert p[max(p)] > 0


def cleared(p):
    """``p`` times the lcm of its denominators and the monomial that takes
    its least exponents to 0."""
    den = lcm(*(Fraction(v).denominator for v in p.values()))
    low = tuple(map(min, zip(*p)))
    return {tuple(e - m for e, m in zip(k, low)): int(v * den) for k, v in p.items()}


@st.composite
def unit_multiples(draw):
    """(r, p*c*t^k, q, f): Laurent polynomials p, q and f in r variables
    with Fraction coefficients, q and f nonzero, a nonzero Fraction c and
    a shift t^k."""
    r = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(-2, 2)] * r)

    def poly(min_size):
        return draw(st.dictionaries(exps, COEFFS.filter(bool), min_size=min_size,
                                    max_size=3))
    p, q, f = poly(0), poly(1), poly(1)
    c = draw(COEFFS.filter(bool)) * draw(st.sampled_from((1, 5, 7)))
    unit = {draw(exps): c}
    return r, fields._dot(((p, unit),)), q, f


@settings(max_examples=60, deadline=None)
@given(unit_multiples())
def test_common_factors_and_units_do_not_change_the_value(case):
    from sympy import ZZ
    from sympy.polys.rings import ring

    r, p, q, f = case
    x = RationalFunction(r, fields._dot(((p, f),)), fields._dot(((q, f),)))
    y = RationalFunction(r, p, q)
    assert x == y and hash(x) == hash(y)
    assert_normal(x.den)
    if x.is_zero():
        assert x.den == {(0,) * r: 1}
    else:
        R = ring(",".join("t%d" % (i + 1) for i in range(r)), ZZ)[0]
        assert R.from_dict(cleared(x.num)).gcd(R.from_dict(x.den)).is_ground
    with pytest.raises(ZeroDivisionError):
        RationalFunction(r, p or q, {})


def test_fox_alexander_is_in_normal_form(corpus12):
    checked = 0
    for s in corpus12:
        G = GroupData(CellComplexX(s))
        chi = default_z_character(G)
        if chi is None:
            continue
        poly = fox_alexander(G, chi)
        if poly:
            assert_normal(poly)
            checked += 1
    assert checked >= 10


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(5) == [1, 1, 1, 1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_field_axioms():
    for n in (2, 3, 5, 12):
        C = CyclotomicField(n)
        z = C.zeta(1)
        p = C.one
        for _ in range(n):
            p = p * z
        assert p == C.one
        a = z - C.from_int(2)
        assert a * a.inv() == C.one
        assert C.zeta(n - 1) * z == C.one


def test_roots_of_unity_invert_without_elimination(monkeypatch):
    # z^k for k >= deg Phi_n is stored reduced (z^4 = -1 - z - z^2 - z^3 in
    # Q(zeta_5)); it still inverts as z^-k.
    def refuse(*_args, **_kwargs):
        raise AssertionError("eliminated to invert a root of unity")
    monkeypatch.setattr(fields, "_bareiss", refuse)
    for n in (1, 2, 4, 5, 7, 12):
        C = CyclotomicField(n)
        for k in range(n):
            assert C.zeta(k).inv() == C.zeta(-k)
            assert C.zeta(k) * C.zeta(-k) == C.one


def test_cyclotomic_linalg():
    C = CyclotomicField(5)
    A = [[C.zeta(1), C.one], [C.one, C.zeta(4)]]
    # det = z*z^4 - 1 = 0: singular by construction
    assert C.det(A).is_zero()
    ns = C.nullspace(A)
    assert len(ns) == 1
    v = ns[0]
    for row in A:
        acc = C.zero
        for a, x in zip(row, v):
            acc = acc + a * x
        assert acc.is_zero()


def test_cyclotomic_det_zero_in_field_not_in_ring():
    # det [[1, z], [z^4, 1]] = 1 - z^5 is a nonzero polynomial in z but zero
    # in Q(zeta_5): a pivot test that only asks for a nonzero lift in Z[z]
    # takes it for rank 2.
    C = CyclotomicField(5)
    z, z4 = C.zeta(1), C.zeta(4)
    A = [[C.one, z], [z4, C.one]]
    assert C.rank(A) == 1
    assert C.det(A).is_zero()
    (v,) = C.nullspace(A)
    assert all(x.is_zero() for x in apply(C, A, v))
    assert C.solve(A, [C.one, C.zero]) is None
    sol = C.solve(A, [C.one, z4])
    assert sol is not None and apply(C, A, sol) == [C.one, z4]


def test_element_strings():
    F = FunctionField(2)
    x = (F.monomial((1, 0)) - F.one) / F.monomial((0, 2))
    s = x.str_in(F.names)
    assert "t1" in s and "t2" in s
    C = CyclotomicField(5)
    assert C.element_str(C.zeta(2) - C.one) == "-1 + z^2"


# -- pinned canonical forms ----------------------------------------------------

def _seeded_element(field, rnd):
    """Zero a quarter of the time; otherwise rational coefficients and, over
    Q(t1..tr), a polynomial denominator, or over Q(zeta_n) a power of zeta."""
    if rnd.random() < 0.25:
        return field.zero
    q = lambda: Fraction(rnd.randint(-4, 4), rnd.choice((1, 1, 2, 3)))
    if isinstance(field, CyclotomicField):
        if rnd.random() < 0.4:
            return field.zeta(rnd.randrange(field.order)) * field.from_fraction(q() or 1)
        return CyclotomicElement(field, [q() if rnd.random() < 0.6 else Fraction(0)
                                         for _ in range(field.degree)])

    def poly(lo, hi, nterms):
        p = {tuple(rnd.randint(lo, hi) for _ in range(field.nvars)): q()
             for _ in range(nterms)}
        return {k: v for k, v in p.items() if v}
    num, den = poly(-1, 2, rnd.randint(1, 3)), poly(0, 1, rnd.randint(0, 2))
    if not num:
        return field.one
    return RationalFunction(field.nvars, num, den or None)


def _seeded_matrix(field, rnd, m, n):
    """An m x n matrix whose last row is, half the time, a rational
    combination of two rows above it."""
    M = [[_seeded_element(field, rnd) for _ in range(n)] for _ in range(m)]
    if m > 1 and rnd.random() < 0.5:
        i, j = rnd.randrange(m - 1), rnd.randrange(m - 1)
        a, b = (field.from_fraction(Fraction(rnd.randint(-2, 2), 2)) for _ in "ab")
        M[-1] = [a * x + b * y for x, y in zip(M[i], M[j])]
    return M


# sha256 of the element strings of every output of the five matrix routines on
# 25 seeded matrices per field, as the engine printed them when pinned.
ROUTINES_DIGEST = "f6e08b65719567d9c7dee3afa970543f87dc2baed2f2c1d96ca22c5b7787ef04"


def test_matrix_routine_outputs_are_pinned():
    lines = []
    for field in (FunctionField(0), FunctionField(1), FunctionField(2),
                  CyclotomicField(3), CyclotomicField(5), CyclotomicField(12)):
        rnd = random.Random(repr(field))
        show = lambda vec: ("None" if vec is None
                            else "[%s]" % ", ".join(map(field.element_str, vec)))
        for _ in range(25):
            m, n = rnd.randint(1, 4), rnd.randint(1, 4)
            M = _seeded_matrix(field, rnd, m, n)
            order = list(range(n))
            rnd.shuffle(order)
            x = [field.from_fraction(Fraction(rnd.randint(-2, 2), rnd.randint(1, 2)))
                 for _ in range(n)]
            k = min(m, n)
            lines += [repr(field), str(field.rank(M)),
                      str(field.select_columns(M, order)),
                      show(field.solve(M, apply(field, M, x))),
                      show(field.solve(M, [_seeded_element(field, rnd) for _ in M])),
                      field.element_str(field.det([row[:k] for row in M[:k]]))]
            lines += map(show, field.nullspace(M))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == ROUTINES_DIGEST, text


def _seeded_fraction(field, rnd):
    """p*c*t^k*f / (q*f): seeded Laurent polynomials p, q and f, a Fraction
    c and a Laurent shift t^k, so that reducing it cancels f and moves c
    and t^k into the numerator."""
    def poly(lo, hi):
        return field.from_terms(
            (tuple(rnd.randint(lo, hi) for _ in range(field.nvars)), rnd.randint(-4, 4))
            for _ in range(rnd.randint(1, 3)))
    p, q, f = poly(-2, 2), poly(-1, 2), poly(-1, 1)
    q = field.one if q.is_zero() else q
    f = field.one if f.is_zero() else f
    c = field.from_fraction(Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 9),
                                     rnd.randint(1, 9)))
    shift = field.monomial(tuple(rnd.randint(-2, 2) for _ in range(field.nvars)))
    return (p * c * shift * f) / (q * f)


# sha256 of the element strings of 250 seeded fractions per field and of the
# sum, product and inverse of each with the one before, as printed when pinned.
FRACTIONS_DIGEST = "ff12a60b3c6b1b17bad2dd552a72f95b799eaa10ca45edb7b57267f21e9e56dc"


def test_field_arithmetic_is_pinned():
    lines = []
    for field in (FunctionField(1), FunctionField(2)):
        rnd = random.Random(repr(field))
        prev = field.one
        for _ in range(250):
            x = _seeded_fraction(field, rnd)
            values = [x, x + prev, x * prev] + ([] if x.is_zero() else [x.inv()])
            lines += map(field.element_str, values)
            prev = x
    assert len(lines) > 1900
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == FRACTIONS_DIGEST, text


# -- Q against Q(t1..tr) with no variable ---------------------------------------


def _big(rnd):
    """A rational with a numerator of 20 to 30 digits over 15 to 25 digits."""
    return Fraction(rnd.choice((-1, 1)) * rnd.randint(10 ** 19, 10 ** 30),
                    rnd.randint(10 ** 14, 10 ** 25))


def test_rational_field_prints_what_function_field_0_prints():
    F, Q = FunctionField(0), RationalField()
    to_q = lambda x: Q.from_fraction(x.as_fraction())
    rnd = random.Random(12)
    for k in range(60):
        m, n = rnd.randint(1, 5), rnd.randint(1, 5)
        M = _seeded_matrix(F, rnd, m, n)
        if k % 3 == 1:  # a zero row
            M[rnd.randrange(m)] = [F.zero] * n
        if k % 3 == 2:  # large numerators and denominators, a row scaled
            M = [[F.from_fraction(_big(rnd)) if rnd.random() < 0.3 else x
                  for x in row] for row in M]
            big = F.from_fraction(_big(rnd))
            M[0] = [big * x for x in M[0]]
        order = list(range(n))
        rnd.shuffle(order)
        x = [F.from_fraction(_big(rnd) if k % 3 == 2 else
                             Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)))
             for _ in range(n)]
        rhs = [apply(F, M, x), [_seeded_element(F, rnd) for _ in M]]
        d = min(m, n)
        outputs = []
        for field, A, bs in ((F, M, rhs),
                             (Q, [list(map(to_q, row)) for row in M],
                              [list(map(to_q, b)) for b in rhs])):
            show = lambda vec: ("None" if vec is None else
                                [field.element_str(y) for y in vec])
            square = [row[:d] for row in A[:d]]
            outputs.append([field.rank(A), field.select_columns(A, order),
                            field.element_str(field.det(square)),
                            [show(v) for v in field.nullspace(A)]]
                           + [show(field.solve(A, b)) for b in bs])
            assert field.det(square) == cofactor_det(field, square)
        assert outputs[0] == outputs[1]


# -- the packed elimination at its limits -------------------------------------


def _check_routines(field, M, x):
    """Rank against the largest nonzero minor, det against cofactor
    expansion, every kernel vector annihilated and the system A y = A x
    solved, each checked by multiplying out in the field."""
    assert field.rank(M) == minor_rank(field, M)
    if len(M) == len(M[0]):
        assert field.det(M) == cofactor_det(field, M)
    for v in field.nullspace(M):
        assert all(y.is_zero() for y in apply(field, M, v))
    b = apply(field, M, x)
    sol = field.solve(M, b)
    assert sol is not None and apply(field, M, sol) == b


def _seeded_rows(field, rnd, entry, size=4):
    """1 to ``size`` rows of ``entry(rnd)``, zero a quarter of the time,
    half of the time square, and half of the time with a last row that
    combines two above it."""
    m = rnd.randint(1, size)
    n = m if rnd.random() < 0.5 else rnd.randint(1, size)
    M = [[entry(rnd) if rnd.random() < 0.75 else field.zero for _ in range(n)]
         for _ in range(m)]
    if m > 2 and rnd.random() < 0.5:
        a, b = entry(rnd), entry(rnd)
        M[-1] = [a * x + b * y for x, y in zip(M[0], M[1])]
    return M


def test_packed_kernel_on_huge_laurent_coefficients():
    F = FunctionField(2)
    t1 = F.monomial((1, 0))

    def entry(rnd):
        x = F.from_terms(
            ((rnd.randint(-2, 2), rnd.randint(-2, 2)),
             rnd.choice((-1, 1)) * rnd.randint(2 ** 70, 2 ** 90))
            for _ in range(rnd.randint(1, 3)))
        if x.is_zero():
            return F.one
        return x / (t1 + F.one) if rnd.random() < 0.1 else x

    rnd = random.Random(21)
    for _ in range(20):
        M = _seeded_rows(F, rnd, entry, size=3)
        _check_routines(F, M, [entry(rnd) for _ in M[0]])


def test_packed_kernel_on_huge_fractions():
    Q = RationalField()
    entry = lambda rnd: Q.from_fraction(_big(rnd))
    rnd = random.Random(22)
    for _ in range(12):
        M = _seeded_rows(Q, rnd, entry)
        _check_routines(Q, M, [entry(rnd) for _ in M[0]])


@pytest.mark.parametrize("n", [1, 5, 12])
def test_ring_multiples_of_phi_are_not_pivots(n, monkeypatch):
    # A row and z^k times it, both stored reduced mod Phi_n: after the first
    # step the second row holds nonzero multiples of Phi_n in Z[z] (for
    # n > 1), which are zero in the field and must be passed over.
    C = CyclotomicField(n)
    rejected = []

    def recording(self, codec, _original=CyclotomicField._pivot_test):
        test = _original(self, codec)

        def nonzero(x):
            out = test(x)
            if x and not out:
                rejected.append(x)
            return out
        return nonzero
    monkeypatch.setattr(CyclotomicField, "_pivot_test", recording)

    def entry(rnd):
        return CyclotomicElement(C, [rnd.randint(-3, 3) for _ in range(C.degree)])

    rnd = random.Random(n)
    for _ in range(10):
        size = rnd.randint(2, 4)
        first = [entry(rnd) for _ in range(size)]
        rows = [first, [C.zeta(rnd.randrange(1, n + 1)) * x for x in first]]
        rows += [[entry(rnd) for _ in range(size)] for _ in range(size - 2)]
        _check_routines(C, rows, [entry(rnd) for _ in range(size)])
    assert bool(rejected) == (n > 1)


def test_minor_filling_its_slot_decodes():
    # det [[a t, 1], [1, -a t]] = -a^2 t^2 - 1 with a = 2^40: its top
    # coefficient has the bit length of the bound H = (a + 1)^2, so the
    # slot is one sign bit wider than the coefficient.  (A minor of rows
    # cleared to coprime coefficients equals H itself only when H = 1.)
    F = FunctionField(1)
    a = F.from_int(2 ** 40) * F.monomial((1,))
    M = [[a, F.one], [F.one, -a]]
    assert F.det(M) == cofactor_det(F, M) == -(a * a) - F.one
    A, codec, _factors = F._packed(M)
    assert codec.width == (2 ** 80).bit_length() + 1
    a40 = 2 ** 40
    assert [list(map(codec.unpack, row)) for row in A] == \
        [[{(1,): a40}, {(0,): 1}], [{(0,): 1}, {(1,): -a40}]]
    assert all(codec.pack(codec.unpack(x)) == x for row in A for x in row)


# -- per-field packing against the packing of dict-cleared rows ---------------


def _dict_integral(row):
    """A row of exponent dicts scaled to coprime integer coefficients, and
    (mul, div): the lcm of all denominators, then the gcd."""
    values = [v for e in row for v in e.values()]
    mul = 1
    if any(type(v) is not int for v in values):
        mul = lcm(*(v.denominator for v in values))
        row = [{k: v.numerator * (mul // v.denominator) for k, v in e.items()}
               for e in row]
        values = [v for e in row for v in e.values()]
    div = gcd(*values)
    if div > 1:
        row = [{k: v // div for k, v in e.items()} for e in row]
    return row, (mul, div or 1)


def _dict_cleared_packing(field, matrix):
    """The packing every field shared before each packed its own elements,
    kept as an oracle for Q and Q(zeta_n): each entry as (numerator,
    denominator) exponent dicts, each row multiplied by the denominators
    of its other entries and cleared to coprime integers on the dicts,
    then packed at the degrees and bound read off the dicts.  Returns
    (packed rows, dict rows, width, slots, the rational each row was
    multiplied by)."""
    if isinstance(field, RationalField):
        zero = ()

        def parts(x):
            q = Fraction(x.q)
            return ({(): q.numerator} if q else {}), q.denominator
    else:
        zero = (0,)

        def parts(x):
            return {(i,): c for i, c in enumerate(x.coeffs) if c}, 1
    rows, scales = [], []
    for row in matrix:
        ps = [parts(x) for x in row]
        new_row = []
        for k, (p, _d) in enumerate(ps):
            for j, (_p, d) in enumerate(ps):
                if j != k and d != 1:
                    p = {e: c * d for e, c in p.items()}
            new_row.append(p)
        new_row, (mul, div) = _dict_integral(new_row)
        factor = 1
        for _p, d in ps:
            factor *= d
        rows.append(new_row)
        scales.append(Fraction(factor * mul, div))
    degree, bound = 0, 1
    for row in rows:
        keys = [e for p in row for e in p]
        if keys and zero:
            degree += max(keys)[0]
        bound *= max(1, sum(abs(c) for p in row for c in p.values()))
    slots = degree + 1
    width = bound.bit_length() + 1 if slots > 1 else 0
    packed = [[sum(c << width * sum(e) for e, c in p.items()) for p in row]
              for row in rows]
    return packed, rows, width, slots, scales


PACKED_FIELDS = (RationalField(), CyclotomicField(1), CyclotomicField(2),
                 CyclotomicField(3), CyclotomicField(5), CyclotomicField(7),
                 CyclotomicField(12))
# Ints up to 2^80, Fractions, and Fractions over 1 (as an inverse or a
# product can leave in a coefficient tuple).
PACKED_COEFFS = st.one_of(
    st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-9, 9)))


@st.composite
def packed_cases(draw):
    field = draw(st.sampled_from(PACKED_FIELDS))
    if isinstance(field, RationalField):
        entry = st.builds(field.from_fraction, PACKED_COEFFS)
    else:
        entry = st.builds(lambda cs: CyclotomicElement(field, cs),
                          st.lists(PACKED_COEFFS, min_size=field.degree,
                                   max_size=field.degree))
    entry = st.one_of(entry, st.just(field.zero))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if rows and draw(st.booleans()):  # an all-zero row
        rows[draw(st.integers(0, m - 1))] = [field.zero] * n
    return field, rows


def _check_packing(field, M):
    A, codec, factors = field._packed(M)
    packed, rows, width, slots, scales = _dict_cleared_packing(field, M)
    assert A == packed
    assert (codec.width, codec.slots) == (width, slots)
    assert [list(map(codec.unpack, row)) for row in A] == rows
    for (poly, (mul, div)), scale in zip(factors, scales):
        assert poly == field._unit and Fraction(mul, div) == scale
    d = min(len(M), len(M[0]) if M else 0)
    square = [row[:d] for row in M[:d]]
    assert field.det(square) == cofactor_det(field, square)


@settings(max_examples=150, deadline=None)
@given(packed_cases())
def test_packing_matches_dict_cleared_rows(case):
    _check_packing(*case)


def test_packing_edge_cases():
    for field in PACKED_FIELDS:
        deg = getattr(field, "degree", 1)

        def el(*cs):
            if isinstance(field, RationalField):
                return field.from_fraction(cs[0])
            return CyclotomicElement(field, (list(cs) + [0] * deg)[:deg])
        for M in ([], [[]], [[], []], [[field.zero]], [[field.zero] * 3] * 2,
                  [[el(Fraction(3)), el(Fraction(-6), Fraction(9))],
                   [field.zero, field.zero]],
                  [[el(Fraction(1, 2), 2), el(Fraction(4))],
                   [el(Fraction(0), Fraction(5, 3)), el(7, Fraction(2))]]):
            _check_packing(field, M)
    # An inverse in Q(zeta_1) holds Fractions over 1.
    C = CyclotomicField(1)
    x = C.from_int(3).inv() * C.from_int(6)
    assert x.coeffs == (2,) and type(x.coeffs[0]) is Fraction
    assert C.det([[x, C.one], [C.one, x]]) == C.from_int(3)
    _check_packing(C, [[x, C.one], [C.one, x]])
