"""Exact arithmetic in GF(p^k) with the quadratic character and norm maps.

Elements are dense coefficient vectors over the prime field, reduced modulo a
fixed monic irreducible polynomial.  Conventions:

* Coefficient sequences are low-to-high: (c0, c1, ..., c_{k-1}) stands for
  c0 + c1*x + ... + c_{k-1}*x^(k-1).
* The canonical order on field elements is lexicographic on coefficient
  tuples.  Every deterministic enumeration in the package (non-residue
  search, projective point order, vertex numbering) derives from this order.
* Moduli are fixed per field order in MODULI -- no runtime search.  Prime
  fields use the degree-1 modulus x so that every field runs through the same
  polynomial machinery.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

# Monic irreducible moduli for the non-prime orders, low-to-high coefficients
# including the leading 1.  Each entry is re-checked by the full
# irreducibility test at FieldSpec construction time.
MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (1, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1),
    81: (2, 1, 0, 0, 1),
    121: (1, 0, 1),
    125: (3, 3, 0, 1),
    128: (1, 1, 0, 0, 0, 0, 0, 1),
    169: (2, 0, 1),
}

MAX_ORDER = 10_000


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise if q is not a prime power."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"not a prime power: {q}")
            return p, k
        p += 1
    return q, 1  # q itself prime


# --- polynomial helpers over GF(p), coefficients low-to-high ---------------

def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num modulo the monic polynomial den, as len(den) - 1
    coefficients.  Every divisor here is monic: a field modulus or a monic
    trial factor, so no leading coefficient needs inverting."""
    num = list(num)
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            for j in range(dn):
                num[i - dn + j] = (num[i - dn + j] - c * den[j]) % p
    return num[:dn]


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, mod, p)


def _poly_is_irreducible(mod: Sequence[int], p: int) -> bool:
    """Full irreducibility test: trial division by every monic polynomial of
    degree 1..k//2.  Exhaustive but cheap at the supported orders."""
    k = len(mod) - 1
    if k < 1 or mod[-1] != 1:
        return False
    if k == 1:
        return True
    from itertools import product

    for deg in range(1, k // 2 + 1):
        for lower in product(range(p), repeat=deg):
            if not any(_poly_mod(mod, list(lower) + [1], p)):
                return False
    return True


class FieldSpec:
    """Immutable description of GF(p^k) with its fixed irreducible modulus."""

    __slots__ = ("p", "k", "q", "modulus", "_hash")

    def __init__(self, p: int, k: int, modulus: Sequence[int] | None = None):
        if k < 1:
            raise ValueError("degree must be >= 1")
        # the cap goes first, to bound the trial division in _is_prime; the
        # exponent test keeps p**k from being computed for a huge k
        if (abs(p) > 1 and k > MAX_ORDER.bit_length()) or p**k > MAX_ORDER:
            raise ValueError(f"field order {p}^{k} exceeds supported maximum {MAX_ORDER}")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        q = p**k
        if modulus is None:
            if k == 1:
                modulus = (0, 1)
            elif q in MODULI:
                modulus = MODULI[q]
            else:
                raise ValueError(f"no modulus on record for GF({q})")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _poly_is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = modulus
        self._hash = hash((p, k, modulus))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldSpec(GF({self.q}))"

    # -- element constructors -------------------------------------------

    def element(self, value) -> FieldElement:
        """Build an element from an int (prime-subfield value) or a
        coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.k - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def zero(self) -> FieldElement:
        return self.element(0)

    def one(self) -> FieldElement:
        return self.element(1)

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in canonical (lexicographic) order."""
        for i in range(self.q):
            yield self.element_at(i)

    def element_at(self, index: int) -> FieldElement:
        """Element at a position in the canonical order (0 -> zero)."""
        if not 0 <= index < self.q:
            raise ValueError(f"index {index} out of range for GF({self.q})")
        digits = []
        for _ in range(self.k):
            digits.append(index % self.p)
            index //= self.p
        digits.reverse()
        return FieldElement(self, tuple(digits))

    def index(self, a: FieldElement) -> int:
        """Position of an element in the canonical order."""
        if a.spec != self:
            raise ValueError("element belongs to a different field")
        i = 0
        for c in a.coeffs:
            i = i * self.p + c
        return i


class FieldElement:
    """An element of GF(p^k): an immutable reduced coefficient tuple."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    def _lift(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise ValueError("cannot mix elements of different fields")
            return other
        if isinstance(other, int):
            return self.spec.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        spec = self.spec
        return FieldElement(spec, tuple(_poly_mulmod(self.coeffs, o.coeffs, spec.modulus, spec.p)))

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        """Multiplicative inverse a^(q-2): the nonzero elements form a group
        of order q - 1, so a^(q-1) = 1 by Lagrange's theorem."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.spec.q - 2)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero field element")
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        result = self.spec.one()
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.spec.element(other)
        return (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"GF({self.spec.q}){list(self.coeffs)}"


@lru_cache(maxsize=None)
def spec_for(order) -> FieldSpec:
    """FieldSpec for a field order given as an int or a "p^k" string."""
    q = parse_order(order)
    if q > MAX_ORDER:  # before factoring, which trial-divides up to sqrt(q)
        raise ValueError(f"field order {q} exceeds supported maximum {MAX_ORDER}")
    p, k = _factor_prime_power(q)
    return FieldSpec(p, k)


def parse_order(order) -> int:
    if isinstance(order, int):
        return order
    text = str(order).strip()
    if "^" in text:
        p, k = (int(part) for part in text.split("^", 1))
        if abs(p) > 1 and k > MAX_ORDER.bit_length():  # no field this large; skip p**k
            raise ValueError(f"field order {text} exceeds supported maximum {MAX_ORDER}")
        return p**k
    return int(text)


def field_arith(a: FieldElement, b, kind: str) -> FieldElement:
    """Uniform entry point for the arithmetic: kind is one of add, sub, mul,
    div, pow (pow takes an integer exponent as b)."""
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        return a / b
    if kind == "pow":
        if not isinstance(b, int):
            raise ValueError("pow exponent must be an integer")
        return a**b
    raise ValueError(f"unknown arithmetic kind: {kind}")


def quadratic_character(a: FieldElement) -> int:
    """chi(a) in {-1, 0, +1}: 0 for zero, +1 for nonzero squares, -1 otherwise.

    Computed as a^((q-1)/2).  Defined only for odd field orders.
    """
    spec = a.spec
    if spec.q % 2 == 0:
        raise ValueError("quadratic character undefined in even characteristic")
    if not a:
        return 0
    r = a ** ((spec.q - 1) // 2)
    if r == spec.one():
        return 1
    if r == -spec.one():
        return -1
    raise AssertionError("character power escaped {+1,-1}")  # pragma: no cover


def smallest_nonresidue(spec: FieldSpec) -> FieldElement:
    """First element with chi = -1 in the canonical enumeration order."""
    if spec.q % 2 == 0:
        raise ValueError("no quadratic non-residues in even characteristic")
    for a in spec.elements():
        if a and quadratic_character(a) == -1:
            return a
    raise AssertionError("no non-residue found")  # pragma: no cover


def _subfield_order(spec: FieldSpec) -> int:
    if spec.k % 2 != 0:
        raise ValueError(f"GF({spec.q}) is not a quadratic extension")
    return spec.p ** (spec.k // 2)


def conjugate(a: FieldElement) -> FieldElement:
    """The involution x -> x^q0 of GF(q0^2) fixing exactly GF(q0)."""
    return a ** _subfield_order(a.spec)


def conjugate_norm(a: FieldElement) -> FieldElement:
    """Norm x -> x^(q0+1) from GF(q0^2) onto its GF(q0) subfield."""
    return a ** (_subfield_order(a.spec) + 1)


def frobenius(a: FieldElement) -> FieldElement:
    """The field automorphism x -> x^p."""
    return a**a.spec.p


class OpArrays(NamedTuple):
    """The tables of OpTables as read-only numpy arrays: int32 add, mul and
    neg, and int8 chi (None for even orders)."""

    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    chi: np.ndarray | None


class OpTables(NamedTuple):
    """Index-based operation tables in the canonical element order.

    add[i][j] and mul[i][j] give the index of the sum/product of elements i
    and j; chi[i] is the quadratic character (None for even orders); neg[i]
    the additive inverse.  `arrays` holds the same tables as numpy arrays,
    which the geometry constructions gather through to evaluate forms and
    polar lines.
    """

    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    chi: tuple[int, ...] | None
    arrays: OpArrays


@lru_cache(maxsize=None)
def op_tables(spec: FieldSpec) -> OpTables:
    """The tables of GF(q), from all q x q sums and products of the
    coefficient vectors at once."""
    p, k, q = spec.p, spec.k, spec.q
    place = p ** np.arange(k - 1, -1, -1, dtype=np.int64)  # coeffs[0] is the leading digit
    C = np.arange(q, dtype=np.int64)[:, None] // place % p  # C[i] = element i's coeffs
    add = (C[:, None, :] + C[None, :, :]) % p @ place
    neg = -C % p @ place
    # the product's coefficients, low to high, then the terms of degree
    # k..2k-2 reduced from the top down by x^k = -(m_0 + ... + m_{k-1} x^(k-1))
    prod = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
    for j in range(k):
        prod[:, :, j : j + k] += C[:, None, j, None] * C[None, :, :]
    low = np.array(spec.modulus[:k], dtype=np.int64)
    for d in range(2 * k - 2, k - 1, -1):
        prod[:, :, d - k : d] -= prod[:, :, d, None] % p * low
    mul = prod[:, :, :k] % p @ place
    chi = None
    if q % 2:
        # Euler's criterion: the nonzero squares are exactly {x^2 : x != 0}
        chi = np.full(q, -1, dtype=np.int8)
        chi[np.diagonal(mul)] = 1
        chi[0] = 0
    arrays = OpArrays(add.astype(np.int32), mul.astype(np.int32), neg.astype(np.int32), chi)
    for t in arrays:
        if t is not None:
            t.flags.writeable = False
    return OpTables(
        tuple(map(tuple, arrays.add.tolist())),
        tuple(map(tuple, arrays.mul.tolist())),
        tuple(arrays.neg.tolist()),
        None if chi is None else tuple(chi.tolist()),
        arrays,
    )


def modulus_table() -> dict[int, tuple[int, ...]]:
    """The built-in moduli, including the implicit degree-1 prime entries."""
    table = dict(MODULI)
    for q in range(2, 170):
        if _is_prime(q):
            table[q] = (0, 1)
    return dict(sorted(table.items()))
