"""Exact coefficient fields for twisted complexes and torsion values.

Two families are provided:

- ``FunctionField(r)``: the rational-function field Q(t1..tr), elements
  stored as reduced fractions of Laurent polynomials with Fraction
  coefficients; r = 0 degenerates to plain Q.
- ``CyclotomicField(n)``: Q(zeta_n), elements stored as coefficient
  vectors modulo the n-th cyclotomic polynomial.

Each field has one elimination routine, ``_eliminate``, which visits the
columns in a given order and returns the (row, column) pivot pairs; rank,
column selection, determinant, kernel and linear solve each take one
call of it.  Over a function field the rows are first cleared to
Laurent-polynomial form and eliminated fraction-free (Bareiss 1968, with
exact division by the previous pivot); clearing above the pivots as well
leaves every pivot row equal to the last pivot times its reduced echelon
row, from which kernels and solutions are read off.  Over a cyclotomic
field plain Gauss-Jordan elimination is exact and cheap.  The greedy
column choice "keep a column if it raises the rank" is exactly the pivot
set of one elimination in that column order.  ``cofactor_det`` gives an
independent slow determinant used to cross-check the engines.
"""

from fractions import Fraction
from math import gcd as _int_gcd

_SYMPY_RINGS = {}


def _sympy_ring(nvars):
    if nvars not in _SYMPY_RINGS:
        from sympy import QQ
        from sympy.polys.rings import ring
        names = ",".join("t%d" % (i + 1) for i in range(nvars))
        _SYMPY_RINGS[nvars] = ring(names, QQ)[0]
    return _SYMPY_RINGS[nvars]


class LaurentPoly:
    """A Laurent polynomial in ``nvars`` variables over Q.

    ``terms`` maps exponent tuples to nonzero Fractions.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if v} if terms else {}

    @classmethod
    def const(cls, nvars, value):
        value = Fraction(value)
        return cls(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        coeff = Fraction(coeff)
        return cls(nvars, {tuple(exps): coeff} if coeff else {})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return LaurentPoly(self.nvars, out)

    def __neg__(self):
        return LaurentPoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return LaurentPoly(self.nvars)
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return LaurentPoly(self.nvars, out)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return LaurentPoly(self.nvars)
        return LaurentPoly(self.nvars, {k: v * c for k, v in self.terms.items()})

    def shift(self, exps):
        return LaurentPoly(self.nvars,
                           {tuple(a + b for a, b in zip(k, exps)): v
                            for k, v in self.terms.items()})

    def lead_key(self):
        return max(self.terms) if self.terms else None

    def lead_coeff(self):
        return self.terms[max(self.terms)] if self.terms else Fraction(0)

    def min_exponents(self):
        if not self.terms:
            return (0,) * self.nvars
        return tuple(min(k[i] for k in self.terms) for i in range(self.nvars))

    def is_monomial(self):
        return len(self.terms) == 1

    def signed_content(self):
        """Positive-lead normaliser: self / signed_content() is integer-primitive
        with positive leading coefficient."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for v in self.terms.values():
            num = _int_gcd(num, abs(v.numerator))
            den = den * v.denominator // _int_gcd(den, v.denominator)
        c = Fraction(num, den)
        return c if self.lead_coeff() > 0 else -c

    def exact_div(self, other):
        """Exact quotient self / other in the Laurent ring; raises if not exact."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly(self.nvars)
        if other.is_monomial():
            (k2, v2), = other.terms.items()
            return LaurentPoly(self.nvars,
                               {tuple(a - b for a, b in zip(k, k2)): v / v2
                                for k, v in self.terms.items()})
        rem = self
        out = {}
        lead2 = other.lead_key()
        c2 = other.terms[lead2]
        limit = len(self.terms) * (len(other.terms) + 1) + 8
        while not rem.is_zero():
            lead1 = rem.lead_key()
            q = tuple(a - b for a, b in zip(lead1, lead2))
            c = rem.terms[lead1] / c2
            out[q] = c
            rem = rem - other * LaurentPoly.monomial(self.nvars, q, c)
            limit -= 1
            if limit < 0:
                raise ArithmeticError("non-exact Laurent division")
        return LaurentPoly(self.nvars, out)

    def to_sympy(self):
        ring = _sympy_ring(self.nvars)
        from sympy import QQ
        return ring.from_dict({k: QQ(v) for k, v in self.terms.items()})

    @classmethod
    def from_sympy(cls, nvars, p):
        terms = {}
        for k, c in p.terms():
            terms[tuple(k)] = Fraction(c.numerator, c.denominator)
        return cls(nvars, terms)

    def str_terms(self, names):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            mono = "*".join(
                ("%s" % names[i] if e == 1 else "%s^%d" % (names[i], e))
                for i, e in enumerate(k) if e != 0)
            if mono:
                if c == 1:
                    part = mono
                elif c == -1:
                    part = "-" + mono
                else:
                    part = "%s*%s" % (c, mono)
            else:
                part = "%s" % c
            bits.append(part)
        out = bits[0]
        for part in bits[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out


def _lp_gcd(a, b):
    """GCD of Laurent polynomials with nonnegative exponents, up to units."""
    nvars = a.nvars
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if nvars == 0:
        return LaurentPoly.const(0, 1)
    if a.is_monomial() or b.is_monomial():
        keys = list(a.terms) + list(b.terms)
        exps = tuple(min(k[i] for k in keys) for i in range(nvars))
        return LaurentPoly.monomial(nvars, exps)
    g = a.to_sympy().gcd(b.to_sympy())
    return LaurentPoly.from_sympy(nvars, g)


class RationalFunction:
    """A reduced fraction of Laurent polynomials; always canonical.

    Canonical form: the denominator is an integer-primitive polynomial
    with nonnegative exponents (minimum exponent 0 in every variable) and
    positive leading coefficient; numerator and denominator are coprime.
    """

    __slots__ = ("nvars", "num", "den")

    def __init__(self, num, den=None, _canonical=False):
        self.nvars = num.nvars
        if den is None:
            den = LaurentPoly.const(self.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if _canonical:
            self.num, self.den = num, den
            return
        if num.is_zero():
            self.num = num
            self.den = LaurentPoly.const(self.nvars, 1)
            return
        # Pull the denominator's monomial unit into the numerator.
        shift = den.min_exponents()
        if any(shift):
            den = den.shift(tuple(-e for e in shift))
            num = num.shift(tuple(-e for e in shift))
        if not den.is_monomial():
            nshift = num.min_exponents()
            npoly = num.shift(tuple(-e for e in nshift)) if any(nshift) else num
            g = _lp_gcd(npoly, den)
            if not (g.is_monomial() and g.lead_key() == (0,) * self.nvars):
                npoly = npoly.exact_div(g)
                den = den.exact_div(g)
            num = npoly.shift(nshift) if any(nshift) else npoly
            shift2 = den.min_exponents()
            if any(shift2):
                den = den.shift(tuple(-e for e in shift2))
                num = num.shift(tuple(-e for e in shift2))
        c = den.signed_content()
        if c != 1:
            den = den.scale(1 / c)
            num = num.scale(1 / c)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        return (isinstance(other, RationalFunction) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def as_fraction(self):
        """The rational value, if constant; raises otherwise."""
        if self.is_zero():
            return Fraction(0)
        if self.num.is_monomial() and self.den.is_monomial():
            (kn, vn), = self.num.terms.items()
            (kd, vd), = self.den.terms.items()
            if not any(kn) and not any(kd):
                return vn / vd
        raise ValueError("not a constant")

    def str_in(self, names):
        num = self.num.str_terms(names)
        if self.den.is_monomial() and self.den.lead_key() == (0,) * self.nvars \
                and self.den.lead_coeff() == 1:
            return num
        return "(%s)/(%s)" % (num, self.den.str_terms(names))


class FunctionField:
    """Q(t1..tr) with fraction-free matrix routines."""

    def __init__(self, nvars):
        self.nvars = nvars
        self.names = tuple("t%d" % (i + 1) for i in range(nvars))
        self.zero = RationalFunction(LaurentPoly(nvars))
        self.one = RationalFunction(LaurentPoly.const(nvars, 1))

    def __eq__(self, other):
        return isinstance(other, FunctionField) and self.nvars == other.nvars

    def __repr__(self):
        return "FunctionField(%d)" % self.nvars

    def from_int(self, k):
        return RationalFunction(LaurentPoly.const(self.nvars, k))

    def from_fraction(self, q):
        return RationalFunction(LaurentPoly.const(self.nvars, q))

    def monomial(self, exps, coeff=1):
        return RationalFunction(LaurentPoly.monomial(self.nvars, exps, coeff))

    def element_str(self, x):
        return x.str_in(self.names)

    # -- fraction-free matrix engine ------------------------------------------

    def _cleared(self, matrix):
        """(Laurent matrix with nonnegative exponents, row factors).

        Each row is scaled by the product of its denominators and a
        monomial; row scaling by nonzero factors preserves ranks, kernels
        and solution sets, and determinants divide out the factors.
        """
        one = LaurentPoly.const(self.nvars, 1)
        cleared = []
        factors = []
        for row in matrix:
            dens = [(j, x.den) for j, x in enumerate(row) if x.den != one]
            factor = one
            for _j, d in dens:
                factor = factor * d
            new_row = []
            for k, x in enumerate(row):
                e = x.num
                for j, d in dens:
                    if j != k:
                        e = e * d
                new_row.append(e)
            mins = [0] * self.nvars
            for e in new_row:
                if not e.is_zero():
                    m = e.min_exponents()
                    mins = [min(a, b) for a, b in zip(mins, m)]
            if any(mins):
                shift = tuple(-m for m in mins)
                new_row = [e.shift(shift) for e in new_row]
                factor = factor.shift(shift)
            cleared.append(new_row)
            factors.append(factor)
        return cleared, factors

    def _eliminate(self, A, order, reduce=False):
        """Fraction-free elimination of the Laurent matrix ``A``, in place.

        Columns are visited in ``order``; a column with no nonzero entry at
        or below the next pivot row is skipped.  Every entry stays a minor
        of the input, so each division by the previous pivot is exact
        (Bareiss).  With ``reduce`` the rows above each pivot are cleared
        too, which leaves every pivot row equal to the last pivot times its
        reduced echelon row.  Returns (pivots, last pivot, sign): the
        (row, column) pivot pairs, the last pivot (for a square matrix of
        full rank, its determinant after the row swaps) and the sign of
        the row swaps.
        """
        m = len(A)
        prev = LaurentPoly.const(self.nvars, 1)
        pivots = []
        sign = 1
        for c in order:
            r = len(pivots)
            if r == m:
                break
            pr = next((i for i in range(r, m) if not A[i][c].is_zero()), None)
            if pr is None:
                continue
            if pr != r:
                A[r], A[pr] = A[pr], A[r]
                sign = -sign
            piv_row = A[r]
            piv = piv_row[c]
            for i in range(0 if reduce else r + 1, m):
                if i == r:
                    continue
                f = A[i][c]
                A[i] = [(piv * x).exact_div(prev) if y.is_zero()
                        else (piv * x - f * y).exact_div(prev)
                        for x, y in zip(A[i], piv_row)]
            pivots.append((r, c))
            prev = piv
        return pivots, prev, sign

    def det(self, matrix):
        """Determinant of a square matrix of field elements."""
        n = len(matrix)
        if n == 0:
            return self.one
        A, factors = self._cleared(matrix)
        pivots, last, sign = self._eliminate(A, range(n))
        if len(pivots) < n:
            return self.zero
        den = factors[0]
        for f in factors[1:]:
            den = den * f
        return RationalFunction(last if sign == 1 else -last, den)

    def rank(self, matrix):
        if not matrix:
            return 0
        return len(self._eliminate(self._cleared(matrix)[0],
                                   range(len(matrix[0])))[0])

    def select_columns(self, matrix, order):
        """The columns, in ``order``, that raise the rank of those before."""
        return [c for _r, c in self._eliminate(self._cleared(matrix)[0], order)[0]]

    def nullspace(self, matrix):
        """Reduced basis of the right kernel, one vector per non-pivot column."""
        if not matrix:
            return []
        n = len(matrix[0])
        A, _ = self._cleared(matrix)
        pivots, last, _s = self._eliminate(A, range(n), reduce=True)
        pivot_cols = {c for _r, c in pivots}
        basis = []
        for j in range(n):
            if j in pivot_cols:
                continue
            vec = [self.zero] * n
            vec[j] = self.one
            for r, c in pivots:
                if not A[r][j].is_zero():
                    vec[c] = RationalFunction(-A[r][j], last)
            basis.append(vec)
        return basis

    def solve(self, matrix, rhs):
        """The solution of A x = rhs with free variables zero, or None if
        inconsistent."""
        if not matrix:
            return [] if all(x.is_zero() for x in rhs) else None
        n = len(matrix[0])
        A, _ = self._cleared([row + [b] for row, b in zip(matrix, rhs)])
        pivots, last, _s = self._eliminate(A, range(n + 1), reduce=True)
        sol = [self.zero] * n
        for r, c in pivots:
            if c == n:
                return None
            if not A[r][n].is_zero():
                sol[c] = RationalFunction(A[r][n], last)
        return sol


def cyclotomic_polynomial(n):
    """Integer coefficient list of the n-th cyclotomic polynomial, low degree first."""

    def poly_div(a, b):
        a = list(a)
        out = [0] * (len(a) - len(b) + 1)
        while len(a) >= len(b) and any(a):
            shift = len(a) - len(b)
            q = a[-1] // b[-1]
            out[shift] = q
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            while a and a[-1] == 0:
                a.pop()
            if not a:
                break
        return out

    poly = [0] * n + [1]
    poly[0] = -1  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = poly_div(poly, cyclotomic_polynomial(d))
    return poly


class CyclotomicElement:
    """An element of Q(zeta_n), coefficients of 1, z, .., z^(deg-1)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, CyclotomicElement)
                and self.field.order == other.field.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def __add__(self, other):
        return CyclotomicElement(self.field,
                                 [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return CyclotomicElement(self.field,
                                 [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclotomicElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        deg = self.field.degree
        conv = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        out = conv[:deg]
        for k in range(deg, 2 * deg - 1):
            if conv[k]:
                red = self.field.power_table[k]
                for i in range(deg):
                    out[i] += conv[k] * red[i]
        return CyclotomicElement(self.field, out)

    def inv(self):
        return self.field.invert(self)

    def __truediv__(self, other):
        return self * other.inv()


class CyclotomicField:
    """Q(zeta_n) with generic exact Gaussian elimination."""

    def __init__(self, order):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = order
        self.phi = tuple(cyclotomic_polynomial(order))
        self.degree = len(self.phi) - 1
        self.power_table = self._powers()
        self.zero = CyclotomicElement(self, [Fraction(0)] * self.degree)
        self.one = self.from_int(1)

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and self.order == other.order

    def __repr__(self):
        return "CyclotomicField(%d)" % self.order

    def _powers(self):
        deg = self.degree
        table = {}
        cur = [-Fraction(c, self.phi[-1]) for c in self.phi[:-1]]
        table[deg] = list(cur)
        for k in range(deg + 1, 2 * deg - 1):
            nxt = [Fraction(0)] + cur[:-1]
            top = cur[-1]
            if top:
                for i in range(deg):
                    nxt[i] += top * table[deg][i]
            table[k] = nxt
            cur = nxt
        return table

    def from_int(self, k):
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(k)
        return CyclotomicElement(self, coeffs)

    def from_fraction(self, q):
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(q)
        return CyclotomicElement(self, coeffs)

    def zeta(self, power=1):
        power %= self.order
        # Reduce z^power mod the cyclotomic polynomial via repeated shifts.
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(1)
        el = CyclotomicElement(self, coeffs)
        if self.degree == 0:
            raise ValueError("degenerate field")
        zc = [Fraction(0)] * self.degree
        if self.degree == 1:
            zc[0] = -Fraction(self.phi[0], self.phi[1])
        else:
            zc[1] = Fraction(1)
        z = CyclotomicElement(self, zc)
        for _ in range(power):
            el = el * z
        return el

    def invert(self, el):
        """Extended Euclid in Q[z] against the cyclotomic polynomial."""
        if el.is_zero():
            raise ZeroDivisionError("inverting zero")

        def trim(p):
            while p and not p[-1]:
                p.pop()
            return p

        def divmod_poly(a, b):
            a = list(a)
            q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
            while len(a) >= len(b) and any(a):
                shift = len(a) - len(b)
                c = a[-1] / b[-1]
                q[shift] += c
                for i, bc in enumerate(b):
                    a[shift + i] -= c * bc
                trim(a)
                if not a:
                    break
            return q, a

        r0 = [Fraction(c) for c in self.phi]
        r1 = trim(list(el.coeffs))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = divmod_poly(r0, r1)
            # s_next = s0 - q * s1
            prod = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        prod[i + j] += qc * sc
            s_next = [a - b for a, b in
                      zip(s0 + [Fraction(0)] * (len(prod) - len(s0)), prod)] \
                if len(prod) >= len(s0) else \
                     [a - b for a, b in
                      zip(s0, prod + [Fraction(0)] * (len(s0) - len(prod)))]
            r0, r1 = r1, trim(r)
            s0, s1 = s1, trim(s_next) or [Fraction(0)]
        # r0 is the gcd, a nonzero constant since phi is irreducible.
        if len(r0) != 1:
            raise ArithmeticError("element not invertible; field arithmetic broken")
        c = r0[0]
        coeffs = [x / c for x in s0]
        coeffs = (coeffs + [Fraction(0)] * self.degree)[:self.degree]
        return CyclotomicElement(self, coeffs)

    def element_str(self, x):
        bits = []
        for i, c in enumerate(x.coeffs):
            if not c:
                continue
            if i == 0:
                bits.append("%s" % c)
            elif i == 1:
                bits.append("z" if c == 1 else "-z" if c == -1 else "%s*z" % c)
            else:
                mono = "z^%d" % i
                bits.append(mono if c == 1 else "-" + mono if c == -1
                            else "%s*%s" % (c, mono))
        if not bits:
            return "0"
        out = bits[0]
        for part in bits[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    # -- exact Gauss-Jordan elimination -----------------------------------------

    def _eliminate(self, A, order, reduce=False):
        """Gauss-Jordan elimination of ``A`` in place, pivot rows scaled to 1.

        Columns are visited in ``order``; a column with no nonzero entry at
        or below the next pivot row is skipped.  The rows below each pivot
        are cleared, and with ``reduce`` the rows above it too, leaving
        the reduced echelon form.  Returns (pivots, product, sign): the
        (row, column) pivot pairs, the product of the pivots before
        scaling and the sign of the row swaps.
        """
        m = len(A)
        pivots = []
        product = self.one
        sign = 1
        for c in order:
            r = len(pivots)
            if r == m:
                break
            pr = next((i for i in range(r, m) if not A[i][c].is_zero()), None)
            if pr is None:
                continue
            if pr != r:
                A[r], A[pr] = A[pr], A[r]
                sign = -sign
            piv = A[r][c]
            product = product * piv
            inv = piv.inv()
            piv_row = A[r] = [x if x.is_zero() else x * inv for x in A[r]]
            for i in range(0 if reduce else r + 1, m):
                f = A[i][c]
                if i != r and not f.is_zero():
                    A[i] = [x if y.is_zero() else x - f * y
                            for x, y in zip(A[i], piv_row)]
            pivots.append((r, c))
        return pivots, product, sign

    def det(self, matrix):
        n = len(matrix)
        if n == 0:
            return self.one
        pivots, product, sign = self._eliminate([list(r) for r in matrix],
                                                range(n))
        if len(pivots) < n:
            return self.zero
        return product if sign == 1 else -product

    def rank(self, matrix):
        if not matrix:
            return 0
        return len(self._eliminate([list(r) for r in matrix],
                                   range(len(matrix[0])))[0])

    def select_columns(self, matrix, order):
        """The columns, in ``order``, that raise the rank of those before."""
        return [c for _r, c in self._eliminate([list(r) for r in matrix], order)[0]]

    def nullspace(self, matrix):
        """Reduced basis of the right kernel, one vector per non-pivot column."""
        if not matrix:
            return []
        n = len(matrix[0])
        A = [list(r) for r in matrix]
        pivots = self._eliminate(A, range(n), reduce=True)[0]
        pivot_cols = {c for _r, c in pivots}
        basis = []
        for j in range(n):
            if j in pivot_cols:
                continue
            vec = [self.zero] * n
            vec[j] = self.one
            for r, c in pivots:
                vec[c] = -A[r][j]
            basis.append(vec)
        return basis

    def solve(self, matrix, rhs):
        """The solution of A x = rhs with free variables zero, or None if
        inconsistent."""
        if not matrix:
            return [] if all(x.is_zero() for x in rhs) else None
        n = len(matrix[0])
        A = [row + [b] for row, b in zip(matrix, rhs)]
        pivots = self._eliminate(A, range(n + 1), reduce=True)[0]
        sol = [self.zero] * n
        for r, c in pivots:
            if c == n:
                return None
            sol[c] = A[r][n]
        return sol


def cofactor_det(field, matrix):
    """Determinant by first-row cofactor expansion; slow cross-check oracle."""
    n = len(matrix)
    if n == 0:
        return field.one
    if n == 1:
        return matrix[0][0]
    total = field.zero
    for j in range(n):
        if matrix[0][j].is_zero():
            continue
        minor = [[matrix[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = matrix[0][j] * cofactor_det(field, minor)
        total = total + term if j % 2 == 0 else total - term
    return total
