"""GF(q) arithmetic for prime powers q = p^e.

Elements are integer codes 0..q-1.  The code of an element is the base-p
packing of its polynomial coefficients: code = sum(c_i * p^i) where c_i is
the coefficient of x^i in the residue polynomial.  0 and 1 are therefore
always the additive and multiplicative identities.

The reducing modulus is not a free choice: field_make picks, for each (p, e),
the lexicographically smallest monic irreducible of degree e over GF(p),
comparing coefficient vectors written leading-coefficient-first (constant
term last).  That makes every element code, and everything built on top of
the field, reproducible across runs and machines.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .errors import DivisionByZero, InternalError, NotPrimePower, TooLarge

# Every field gets full q x q operation tables, up to this order.  No
# instance over a larger field builds in useful time: the smallest plane
# past it, PG(2,521), has 271,963 points and as many lines.
Q_CAP = 512


def _factor_prime_power(q):
    if q < 2:
        raise NotPrimePower("q must be at least 2, got %r" % (q,))
    n = q
    p = None
    for cand in range(2, n + 1):
        if cand * cand > n:
            p = n  # leftover factor is prime
            break
        if n % cand == 0:
            p = cand
            break
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise NotPrimePower("q=%d is not a prime power" % q)
    return p, e


# Polynomials over GF(p) are coefficient lists, low degree first, no
# trailing zeros (the zero polynomial is the empty list).

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            f = (c * inv_lead) % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - f * m[j]) % p
    del a[dm:]
    return _poly_trim(a)


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _divides(d, m, p):
    """True if polynomial d divides m over GF(p)."""
    return not _poly_mod(m, d, p)


def _is_irreducible(m, p):
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    deg = len(m) - 1
    for k in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=k):
            d = list(tail) + [1]  # monic of degree k
            if _divides(d, m, p):
                return False
    return True


def _canonical_modulus(p, e):
    """Smallest monic irreducible of degree e, ordered by the coefficient
    vector written leading-first / constant-last."""
    if e == 1:
        return (1, 0)  # x
    for head in product(range(p), repeat=e):
        # head = (c_{e-1}, ..., c_0) scanned in ascending lex order
        m = [head[e - 1 - i] for i in range(e)] + [1]  # low-first for the math
        if _is_irreducible(m, p):
            return (1,) + head
    raise NotPrimePower("no irreducible of degree %d over GF(%d)" % (e, p))  # unreachable


@dataclass(eq=False)
class FieldSpec:
    """A concrete GF(q) with its reduction modulus and operation tables.

    field_make fills the tables, so every operation is a table read."""

    q: int
    p: int
    e: int
    modulus: tuple  # coefficient vector, leading coefficient first, constant last
    add_table: list = field(default=None, repr=False)
    mul_table: list = field(default=None, repr=False)
    inv_table: list = field(default=None, repr=False)
    neg_table: list = field(default=None, repr=False)
    primitive: int = None  # the smallest element whose powers are GF(q)*

    # -- operations -----------------------------------------------------

    def add(self, a, b):
        return self.add_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse in GF(%d)" % self.q)
        return self.inv_table[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- misc -------------------------------------------------------------

    def modulus_str(self):
        terms = []
        deg = self.e
        for i, c in enumerate(self.modulus):
            d = deg - i
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            elif d == 1:
                terms.append("x" if c == 1 else "%dx" % c)
            else:
                terms.append("x^%d" % d if c == 1 else "%dx^%d" % (c, d))
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return "FieldSpec(q=%d, p=%d, e=%d, modulus=%s)" % (
            self.q, self.p, self.e, self.modulus_str())


# -- arithmetic on codes, used only to fill the tables ---------------------

def _digits(a, p, e):
    """Base-p digits of the code, low degree first, length e."""
    out = []
    for _ in range(e):
        out.append(a % p)
        a //= p
    return out


def _mul_raw(fq, a, b):
    p, e = fq.p, fq.e
    if e == 1:
        return (a * b) % p
    m_low = [fq.modulus[-1 - i] for i in range(e + 1)]
    prod_ = _poly_mul(_poly_trim(_digits(a, p, e)), _poly_trim(_digits(b, p, e)), p)
    out = 0
    for c in reversed(_poly_mod(prod_, m_low, p)):
        out = out * p + c
    return out


def _powers(fq):
    """The powers g^0 .. g^(q-2) of the smallest primitive element g."""
    for g in range(1, fq.q):
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = _mul_raw(fq, x, g)
        if len(powers) == fq.q - 1:
            return powers
    raise InternalError("GF(%d) has no primitive element" % fq.q)  # unreachable


def _build_tables(fq):
    """Addition digit by digit from the codes; multiplication from the log
    and antilog tables of a primitive element g, so a * b is g^(log a +
    log b).  The negative and the inverse of a are where a's row of those
    tables holds 0 and 1."""
    q, p = fq.q, fq.p
    add = [[(a + b) % p for b in range(p)] for a in range(p)]
    low = p  # add covers the codes below low, the low digits of every code
    while low < q:
        add = [[add[a % low][b % low] + low * ((a // low + b // low) % p)
                for b in range(low * p)] for a in range(low * p)]
        low *= p
    antilog = _powers(fq)
    log = [0] * q
    for i, x in enumerate(antilog):
        log[x] = i
    antilog2 = antilog + antilog  # g^i for i up to 2q-4, no reduction mod q-1
    logs = log[1:]
    mul = [[0] * q]
    for a in range(1, q):
        # row a at b is g^(log a + log b): a window of antilog2 read by log
        mul.append([0, *map(antilog2[log[a]:].__getitem__, logs)])
    neg = [row.index(0) for row in add]
    inv = [None] + [row.index(1) for row in mul[1:]]
    fq.add_table, fq.neg_table, fq.mul_table, fq.inv_table = add, neg, mul, inv
    fq.primitive = antilog[1] if q > 2 else 1


def _validate_tables(fq):
    """Structural sanity on freshly built tables: identities, inverses, and
    the latin-square property of both operation tables.  Full associativity
    and distributivity exhaustion lives in the test suite."""
    q = fq.q
    add, neg, mul, inv = fq.add_table, fq.neg_table, fq.mul_table, fq.inv_table
    full = list(range(q))
    for a in range(q):
        if not (add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
                and add[a][neg[a]] == 0):
            raise InternalError("GF(%d) tables: identity or negation fails at %d"
                                % (q, a))
        if sorted(add[a]) != full or (a and sorted(mul[a][1:] + [0]) != full):
            raise InternalError("GF(%d) tables: row %d is not a permutation"
                                % (q, a))
        if a and mul[inv[a]][a] != 1:
            raise InternalError("GF(%d) tables: bad inverse of %d" % (q, a))
        if add[a] != [add[b][a] for b in range(q)] \
                or mul[a] != [mul[b][a] for b in range(q)]:
            raise InternalError("GF(%d) tables: not commutative at %d" % (q, a))
    if q <= 16:  # cheap enough to exhaust at construction
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    if not (add[add[a][b]][c] == add[a][add[b][c]]
                            and mul[mul[a][b]][c] == mul[a][mul[b][c]]
                            and mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]):
                        raise InternalError(
                            "GF(%d) tables: associativity or distributivity"
                            " fails at (%d, %d, %d)" % (q, a, b, c))


@lru_cache(maxsize=None)
def field_make(q):
    """Construct GF(q) with its tables.  Raises NotPrimePower for bad q,
    TooLarge beyond Q_CAP."""
    if not isinstance(q, int):
        raise NotPrimePower("q must be an integer, got %r" % (q,))
    if q > Q_CAP:
        raise TooLarge("q=%d exceeds the cap %d" % (q, Q_CAP))
    p, e = _factor_prime_power(q)
    fq = FieldSpec(q=q, p=p, e=e, modulus=_canonical_modulus(p, e))
    _build_tables(fq)
    _validate_tables(fq)
    return fq
