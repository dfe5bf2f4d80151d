"""GF(p^k) as element indices over numpy operation tables.

An element is an index 0..q-1: the base-p digits of the index, leading digit
first, are its coefficients c0, c1, ..., c_{k-1} of c0 + c1*x + ... +
c_{k-1}*x^(k-1), reduced modulo a fixed monic irreducible polynomial.  So 0
is zero and q // p is one, and the canonical order on elements, from which
every deterministic enumeration in the package derives (non-residue search,
projective point order, vertex numbering), is lexicographic on coefficient
tuples.  `op_tables` gives the sum, product, negation, quadratic character
and inverse of every element as arrays of indices; the constructions gather
through them and do no other field arithmetic.  Field orders are ints, and
the moduli are fixed per order in MODULI -- no runtime search.  The tables
check their own modulus: they are refused unless every nonzero element has
exactly one inverse, which holds exactly when the modulus is irreducible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Monic irreducible moduli for the non-prime orders, low-to-high coefficients
# including the leading 1.  op_tables refuses a reducible one, and the tests
# check every entry by trial division (tests/gf_reference.py).
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


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise if q is not a prime power.  The
    least divisor p tried is prime, so q = p^k is a prime power exactly when
    dividing out p leaves 1."""
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


class FieldSpec(NamedTuple):
    """GF(p^k): its characteristic, degree and order, the index of one (the
    coefficients (1, 0, ..., 0)) and its monic modulus, low-to-high
    coefficients.  spec_for builds it; op_tables checks that the modulus
    gives a field."""

    p: int
    k: int
    q: int
    one: int
    modulus: tuple[int, ...]


@lru_cache(maxsize=None)
def spec_for(q: int) -> FieldSpec:
    """The FieldSpec of the field of order q, its modulus from MODULI when q
    is not prime.  Builds no tables."""
    if q > MAX_ORDER:  # before factoring, which trial-divides up to sqrt(q)
        raise ValueError(f"field order {q} exceeds supported maximum {MAX_ORDER}")
    p, k = _factor_prime_power(q)
    if k == 1:
        modulus = (0, 1)
    elif q in MODULI:
        modulus = MODULI[q]
    else:
        raise ValueError(f"no modulus on record for GF({q})")
    return FieldSpec(p, k, q, q // p, modulus)


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
    j, neg[i] that of -i (int32), chi[i] the quadratic character (int8;
    None for even orders), and inv[i] the index of 1/i (inv[0] = 0)."""

    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    chi: np.ndarray | None
    inv: np.ndarray


@lru_cache(maxsize=None)
def op_tables(spec: FieldSpec) -> OpTables:
    """The tables of GF(q), from all q x q sums and products of the
    coefficient vectors at once.  Raises ValueError unless every nonzero
    element has exactly one inverse: Z_p[x]/(m) is a field exactly then,
    that is, exactly when the modulus m is irreducible."""
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
    is_one = mul == spec.one
    if (is_one[1:].sum(axis=1) != 1).any():
        raise ValueError(f"modulus {spec.modulus} is reducible over GF({p})")
    chi = None
    if q % 2:
        # Euler's criterion: the nonzero squares are exactly {x^2 : x != 0}
        chi = np.full(q, -1, dtype=np.int8)
        chi[np.diagonal(mul)] = 1
        chi[0] = 0
    inv = is_one.argmax(axis=1)
    tables = OpTables(*(t.astype(np.int32) for t in (add, mul, neg)), chi, inv.astype(np.int32))
    for t in tables:
        if t is not None:
            t.flags.writeable = False
    return tables
