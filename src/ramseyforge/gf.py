"""GF(p^k) as element indices over numpy operation tables.

An element is an index 0..q-1: the base-p digits of the index, leading digit
first, are its coefficients c0, c1, ..., c_{k-1} of c0 + c1*x + ... +
c_{k-1}*x^(k-1), reduced modulo a fixed monic irreducible polynomial.  So 0
is zero and q // p is one, and the canonical order on elements, from which
every deterministic enumeration in the package derives (non-residue search,
projective point order, vertex numbering), is lexicographic on coefficient
tuples.  `op_tables` gives the sum, product, negation and quadratic
character of every element as arrays of indices; the constructions gather
through them and do no other field arithmetic.  Moduli are fixed per field
order in MODULI -- no runtime search.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

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

    __slots__ = ("p", "k", "q", "one", "modulus", "_hash")

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
        self.one = q // p  # the index of 1: coefficients (1, 0, ..., 0)
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
        p, k = (part.strip() for part in text.split("^", 1))
        if not (p.isascii() and p.isdigit() and k.isascii() and k.isdigit()):
            raise ValueError(f"field order {text!r} is not p^k in unsigned digits")
        p, k = int(p), int(k)
        if p > 1 and k > MAX_ORDER.bit_length():  # no field this large; skip p**k
            raise ValueError(f"field order {text} exceeds supported maximum {MAX_ORDER}")
        return p**k
    return int(text)


def smallest_nonresidue(spec: FieldSpec) -> int:
    """Index of the first element with chi = -1 in the canonical order.  For
    a prime field the index is the residue itself, tested by Euler's
    criterion without building the tables."""
    if spec.q % 2 == 0:
        raise ValueError("no quadratic non-residues in even characteristic")
    if spec.k == 1:
        p = spec.p
        return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    return int(np.argmax(op_tables(spec).chi == -1))


class OpTables(NamedTuple):
    """Read-only operation tables in the canonical element order: add[i, j]
    and mul[i, j] are the indices of the sum and product of elements i and
    j, neg[i] that of -i (int32), and chi[i] the quadratic character (int8;
    None for even orders)."""

    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    chi: np.ndarray | None


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
    tables = OpTables(add.astype(np.int32), mul.astype(np.int32), neg.astype(np.int32), chi)
    for t in tables:
        if t is not None:
            t.flags.writeable = False
    return tables


def modulus_table() -> dict[int, tuple[int, ...]]:
    """The built-in moduli, including the implicit degree-1 prime entries."""
    table = dict(MODULI)
    for q in range(2, 170):
        if _is_prime(q):
            table[q] = (0, 1)
    return dict(sorted(table.items()))
