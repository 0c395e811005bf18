"""The gcd of integer polynomials in Z[t1..tr], held as exponent dicts.

A polynomial here is a dict from exponent tuples, every exponent >= 0,
to nonzero ints; r = 0 is the dict {(): n}.  ``gcd`` tries the heuristic
gcd GCDHEU (Char, Geddes, Gonnet, J. Symb. Comput. 7, 1989): with the
integer contents removed, t1 is evaluated at an integer x, the gcd of
the two images is taken one variable down (at the bottom by
``math.gcd``), and a candidate is rebuilt from the balanced base-x digits
of its coefficients.  x starts above twice a bound on the roots of the
inputs, so a primitive candidate that divides both inputs is their gcd;
after a failed try it grows by a factor of about 2.7 x^(1/4).  When six
values fail, ``prs_gcd`` takes the gcd from a primitive polynomial
remainder sequence in t1 over Z[t2..tr] (Brown, JACM 18, 1971).  Both
results are determined up to sign.
"""

from math import gcd as _int_gcd, isqrt

from .fields import _dot, _integral, _pdiv

HEU_GCD_MAX = 6


def gcd(f, g):
    """A gcd of the nonzero polynomials ``f`` and ``g``."""
    h = _heu_gcd(f, g)
    return prs_gcd(f, g) if h is None else h


def _divides(h, f):
    """Whether ``h`` divides ``f`` in Z[t1..tr].

    ``_pdiv`` divides in the Laurent ring, where monomials are units, so
    the quotient must also have no negative exponent.  Its coefficients
    are integers when ``h`` is primitive (Gauss's lemma).
    """
    try:
        q = _pdiv(f, h)
    except ArithmeticError:
        return False
    return all(e >= 0 for k in q for e in k)


def _heu_gcd(f, g):
    """GCDHEU on the nonzero ``f`` and ``g``: their gcd, or None."""
    if not next(iter(f)):
        return {(): _int_gcd(f[()], g[()])}
    (f,), (_d, cf) = _integral([f])
    (g,), (_d, cg) = _integral([g])
    c = _int_gcd(cf, cg)
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    b = 2 * min(f_norm, g_norm) + 29
    x = max(min(b, 99 * isqrt(b)),
            2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)
    for _try in range(HEU_GCD_MAX):
        ff = _evaluate(f, x)
        gg = _evaluate(g, x)
        if ff and gg:
            h = _heu_gcd(ff, gg)
            if h is None:
                return None
            (h,), _s = _integral([_interpolate(h, x)])
            if _divides(h, f) and _divides(h, g):
                return {k: v * c for k, v in h.items()} if c > 1 else h
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _evaluate(f, x):
    """``f`` at t1 = x, a polynomial in the remaining variables."""
    out = {}
    for k, v in f.items():
        rest = k[1:]
        out[rest] = out.get(rest, 0) + v * x ** k[0]
    return {k: v for k, v in out.items() if v}


def _interpolate(h, x):
    """The polynomial whose t1^i coefficient holds the i-th balanced base-x
    digits of the coefficients of ``h``, so that it is ``h`` at t1 = x."""
    out = {}
    half = x // 2
    for k, c in h.items():
        i = 0
        while c:
            d = c % x
            if d > half:
                d -= x
            if d:
                out[(i,) + k] = d
            c = (c - d) // x
            i += 1
    return out


def prs_gcd(f, g):
    """A gcd of the nonzero polynomials ``f`` and ``g`` from a primitive
    PRS in t1, times the gcd of their contents over Z[t2..tr]."""
    if not next(iter(f)):
        return {(): _int_gcd(f[()], g[()])}
    cf, f = _t1_content(f)
    cg, g = _t1_content(g)
    c = {(0,) + k: v for k, v in prs_gcd(cf, cg).items()}
    if _t1_degree(f) < _t1_degree(g):
        f, g = g, f
    while _t1_degree(g):
        r = _prem(f, g)
        if not r:
            break
        f, g = g, _t1_content(r)[1]
    else:  # a primitive polynomial free of t1 is a unit
        return c
    return _dot(((c, g),))


def _t1_degree(f):
    return max(k[0] for k in f)


def _t1_content(f):
    """(content, primitive part) of ``f`` as a polynomial in t1 over
    Z[t2..tr]; the content is keyed by exponents of t2..tr."""
    coeffs = {}
    for k, v in f.items():
        coeffs.setdefault(k[0], {})[k[1:]] = v
    parts = iter(coeffs.values())
    c = next(parts)
    for p in parts:
        c = prs_gcd(c, p)
    return c, {(e,) + k: v for e, p in coeffs.items() for k, v in _pdiv(p, c).items()}


def _prem(f, g):
    """The pseudo-remainder of ``f`` by ``g`` in t1, up to a factor that is
    a power of the leading coefficient of ``g``."""
    d = _t1_degree(g)
    lc = {(0,) + k[1:]: v for k, v in g.items() if k[0] == d}
    while f:
        e = _t1_degree(f)
        if e < d:
            break
        lf = {(e - d,) + k[1:]: -v for k, v in f.items() if k[0] == e}
        f = _dot(((lc, f), (lf, g)))
    return f
