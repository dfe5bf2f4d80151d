"""Reference arithmetic in GF(p^k), one element object at a time.

An oracle for the numpy operation tables of ramseyforge.gf that shares none
of their code: an Element is a tuple of coefficients (c0 first), multiplied
as polynomials and reduced by the field's modulus one product at a time,
with inverses as Lagrange powers a^(q-2).  Element i of the canonical order
has the base-p digits of i, leading digit first, as its coefficients.  The
module also proves a modulus irreducible by trial division, and lists the
orders the package has tables for (ORDERS), from its own primality test,
and lists the points of PG(s, q) and the absolute points of PG(2, q).
Only the tests import this module; it takes FieldSpec records from gf, but
none of its functions.
"""

from __future__ import annotations

from itertools import product

from ramseyforge.gf import MODULI, FieldSpec


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


# every prime below 170 and every order with a modulus on record
ORDERS = sorted({q for q in range(170) if is_prime(q)} | set(MODULI))


def poly_mod(num, den, p: int) -> list[int]:
    """Remainder of num modulo the monic den over GF(p), coefficients low to
    high, as len(den) - 1 coefficients."""
    rem = [c % p for c in num]
    d = len(den) - 1
    while len(rem) > d:
        c = rem.pop()  # the leading term, cancelled by c * x^shift * den
        shift = len(rem) - d
        for j in range(d):
            rem[shift + j] = (rem[shift + j] - c * den[j]) % p
    return rem + [0] * (d - len(rem))


def is_irreducible(mod, p: int) -> bool:
    """True when the monic mod has no monic factor of degree 1..deg/2."""
    k = len(mod) - 1
    return mod[-1] == 1 and all(
        any(poly_mod(mod, [*lower, 1], p))
        for deg in range(1, k // 2 + 1)
        for lower in product(range(p), repeat=deg)
    )


class Element:
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        self.spec = spec
        self.coeffs = tuple(int(c) % spec.p for c in coeffs)
        if len(self.coeffs) != spec.k:
            raise ValueError(f"expected {spec.k} coefficients, got {len(self.coeffs)}")

    def _lift(self, other) -> Element:
        return other if isinstance(other, Element) else element(self.spec, other)

    def __add__(self, other):
        o = self._lift(other)
        return Element(self.spec, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Element(self.spec, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        o = self._lift(other)
        spec = self.spec
        prod = [0] * (2 * spec.k - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                prod[i + j] += a * b
        return Element(spec, poly_mod(prod, spec.modulus, spec.p))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        result = element(self.spec, 1)
        for _ in range(e):
            result = result * self
        return result

    def inverse(self) -> Element:
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.spec.q - 2)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = element(self.spec, other)
        return isinstance(other, Element) and (self.spec, self.coeffs) == (other.spec, other.coeffs)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"GF({self.spec.q}){list(self.coeffs)}"


def element(spec: FieldSpec, value) -> Element:
    """An int of the prime subfield, or a coefficient sequence."""
    if isinstance(value, int):
        return Element(spec, (value,) + (0,) * (spec.k - 1))
    return Element(spec, value)


def element_at(spec: FieldSpec, index: int) -> Element:
    return Element(spec, [index // spec.p ** (spec.k - 1 - j) for j in range(spec.k)])


def index(a: Element) -> int:
    i = 0
    for c in a.coeffs:
        i = i * a.spec.p + c
    return i


def elements(spec: FieldSpec) -> list[Element]:
    return [element_at(spec, i) for i in range(spec.q)]


def quadratic_character(a: Element) -> int:
    """chi(a) = a^((q-1)/2) as 0, +1 or -1, for odd q."""
    if not a:
        return 0
    r = a ** ((a.spec.q - 1) // 2)
    assert r == 1 or r == -1
    return 1 if r == 1 else -1


def points(rows, spec: FieldSpec) -> list[tuple[Element, ...]]:
    """Element tuples of rows of element indices, such as points of PG(s, q)."""
    elems = elements(spec)
    return [tuple(elems[i] for i in row) for row in rows.tolist()]


def normalized(coords) -> tuple[Element, ...]:
    """A projective point's coordinates scaled so its first nonzero one is 1."""
    pivot = next(c for c in coords if c)
    return tuple(c / pivot for c in coords)


def projective_points(spec: FieldSpec, dim: int) -> list[tuple[Element, ...]]:
    """The points of PG(dim, q) in the package's vertex order: the leading
    one moves from the last coordinate to the first, and the coordinates
    after it run lexicographically in element-index order."""
    elems = elements(spec)
    zero, one = element(spec, 0), element(spec, 1)
    return [
        (zero,) * lead + (one,) + tuple(elems[i] for i in tail)
        for lead in range(dim, -1, -1)
        for tail in product(range(spec.q), repeat=dim - lead)
    ]


def absolute_points_by_objects(spec: FieldSpec) -> tuple[int, ...]:
    """Vertex indices of the absolute points of the orthogonal polarity of
    PG(2, q), tested point by point: the points u with u.u = 0."""
    return tuple(
        i for i, pt in enumerate(projective_points(spec, 2)) if not sum(c * c for c in pt)
    )
