"""Field tables: axioms, character, norm, and the fixed modulus table."""

from __future__ import annotations

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gf_reference as ref
from ramseyforge import gf
from ramseyforge.geometry import _powers


SMALL_ORDERS = [q for q in ref.ORDERS if q <= 27]
ODD_ORDERS_49 = [3, 5, 7, 9, 11, 13, 25, 27, 49]


def tables(q):
    """GF(q)'s spec and its add, mul, neg and chi tables."""
    spec = gf.spec_for(q)
    return (spec, *gf.op_tables(spec)[:4])


def test_modulus_table_entries_are_irreducible():
    for q, mod in gf.MODULI.items():
        spec = gf.spec_for(q)
        assert spec.modulus == mod and spec.p**spec.k == q and ref.is_prime(spec.p)
        assert len(mod) == spec.k + 1 and mod[-1] == 1
        assert ref.is_irreducible(mod, spec.p)
    # x^3 + 1 = (x + 1)(x^2 + x + 1), and (x^2 + x + 1)^2 with no linear factor
    assert not ref.is_irreducible((1, 0, 0, 1), 2) and not ref.is_irreducible((1, 0, 1, 0, 1), 2)


def test_spec_rejects_reducible_modulus():
    # a spec with a reducible modulus gets no tables
    with pytest.raises(ValueError, match="reducible"):
        gf.op_tables(gf.FieldSpec(2, 2, 4, 2, (1, 0, 1)))  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError, match="no modulus on record"):
        gf.spec_for(2197)  # 13^3
    with pytest.raises(ValueError, match="not a prime power"):
        gf.spec_for(12)


@pytest.mark.parametrize("q", sorted(gf.MODULI))
def test_inverse_table(q):
    spec = gf.spec_for(q)
    _, mul, _, _, inv = gf.op_tables(spec)
    assert inv[0] == 0
    assert (mul[np.arange(1, q), inv[1:]] == spec.one).all()


def test_order_cap_rejects_before_factoring():
    # 100000000000031 is prime: trial division to its square root took
    # seconds, and a prime near 10^18 would take minutes
    start = time.perf_counter()
    for q in (100000000000031, 1000000000000000003):
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            gf.spec_for(q)
    assert time.perf_counter() - start < 1.0
    assert gf.spec_for(9973).q == 9973  # the largest prime under the cap


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    # on the tables the builds gather through: every pair, sampled triples
    spec, add, mul, neg, _ = tables(q)
    idx = np.arange(q)
    zero, one = 0, spec.one
    assert (add[:, zero] == idx).all() and (mul[:, one] == idx).all()
    assert (mul[:, zero] == zero).all()
    assert (add[idx, neg] == zero).all()
    assert (add == add.T).all() and (mul == mul.T).all()
    # each row of add, and each nonzero row of mul off zero, is a permutation
    assert (np.sort(add, axis=1) == idx).all()
    assert (np.sort(mul[1:, 1:], axis=1) == idx[1:]).all()
    assert ((mul[1:] == one).sum(axis=1) == 1).all()  # one inverse each
    s = idx[:: max(1, q // 5)]
    a, b, c = (x.ravel() for x in np.meshgrid(s, s, s, indexing="ij"))
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()


def test_gf9_multiplication_example():
    spec, _, mul, neg, _ = tables(9)  # modulus x^2 + 1
    x = 1  # coefficients (0, 1)
    assert mul[x, x] == neg[spec.one] == 2 * spec.one  # x^2 = -1 = 2


@pytest.mark.parametrize("q", ODD_ORDERS_49)
def test_character_counts(q):
    chi = tables(q)[4].tolist()
    assert chi.count(0) == 1 and chi[0] == 0
    assert chi.count(1) == (q - 1) // 2
    assert chi.count(-1) == (q - 1) // 2


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_character_multiplicative(q):
    _, _, mul, _, chi = tables(q)
    assert (chi[mul] == chi[:, None] * chi[None, :]).all()


def test_character_zero_and_squares_mod7():
    chi = tables(7)[4]
    assert chi[0] == 0
    assert set(np.flatnonzero(chi == 1).tolist()) == {1, 2, 4}


def test_character_rejects_even_order():
    assert gf.op_tables(gf.spec_for(4)).chi is None
    with pytest.raises(ValueError):
        gf.smallest_nonresidue(gf.spec_for(8))


@pytest.mark.parametrize("q,expected", [(3, 2), (5, 2), (7, 3), (11, 2), (13, 2)])
def test_smallest_nonresidue_prime_fields(q, expected):
    assert gf.smallest_nonresidue(gf.spec_for(q)) == expected


def test_smallest_nonresidue_gf9():
    spec = gf.spec_for(9)
    nr = gf.smallest_nonresidue(spec)
    # canonical order: 0, x, 2x, 1, 1+x, ... ; x, 2x and 1 are squares, 1+x is not
    assert ref.element_at(spec, nr).coeffs == (1, 1) and nr == 4
    assert gf.op_tables(spec).chi[nr] == -1


def test_smallest_nonresidue_matches_element_arithmetic():
    # the prime fields take Euler's criterion on the integers, the others
    # the tables; both against the first chi = -1 in element arithmetic
    for q in ref.ORDERS:
        spec = gf.spec_for(q)
        if q % 2:
            first = next(a for a in ref.elements(spec) if ref.quadratic_character(a) == -1)
            assert gf.smallest_nonresidue(spec) == ref.index(first)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 25, 27])
def test_frobenius_is_automorphism(q):
    # x -> x^p on the tables: a bijection that respects sums and products
    spec, add, mul, _, _ = tables(q)
    f = _powers(mul, spec.p, spec.one)
    assert len(set(f.tolist())) == q
    assert (f[add] == add[f[:, None], f[None, :]]).all()
    assert (f[mul] == mul[f[:, None], f[None, :]]).all()


def test_norm_gf4():
    spec, _, mul, _, _ = tables(4)
    norm = _powers(mul, 3, spec.one)  # x^(2+1), as the unital build takes it
    w = 1  # coefficients (0, 1)
    assert norm[w] == spec.one  # w * w^2 = w^3 = 1
    assert norm[0] == 0 and norm[spec.one] == spec.one


def test_norm_fibers_gf9():
    spec, _, mul, _, _ = tables(9)
    norm = _powers(mul, 4, spec.one)
    fibers = np.bincount(norm[1:], minlength=9)
    # norm maps GF(9)* onto GF(3)* with fibers of size q+1 = 4
    assert sorted(fibers[fibers > 0].tolist()) == [4, 4]
    for n in np.flatnonzero(fibers):
        assert _powers(mul, 3, spec.one)[n] == n  # lands in the prime subfield


def test_conjugate_is_involution_fixing_subfield():
    spec, _, mul, _, _ = tables(25)
    conj = _powers(mul, 5, spec.one)
    assert (conj != np.arange(25)).sum() == 20  # it fixes exactly GF(5)
    assert (conj[conj] == np.arange(25)).all()
    assert (_powers(mul, 6, spec.one) == mul[np.arange(25), conj]).all()


def test_canonical_order_and_index():
    # element i has the base-p digits of i, leading digit first, as its
    # coefficients: one is q // p, and sums add digits mod p
    spec, add, mul, _, _ = tables(27)
    digits = np.arange(27)[:, None] // np.array([9, 3, 1]) % 3
    assert spec.one == 9 and (mul[9] == np.arange(27)).all()
    assert (add == ((digits[:, None] + digits[None, :]) % 3) @ [9, 3, 1]).all()
    elems = ref.elements(spec)
    assert [ref.index(a) for a in elems] == list(range(27))
    assert [a.coeffs for a in elems] == sorted(a.coeffs for a in elems)


def _check_tables(spec, pairs):
    """op_tables against element arithmetic on the given index pairs."""
    add, mul, neg, chi, inv = gf.op_tables(spec)
    elems = ref.elements(spec)
    assert neg.tolist() == [ref.index(-a) for a in elems]
    if spec.q % 2:
        assert chi.tolist() == [ref.quadratic_character(a) for a in elems]
    else:
        assert chi is None
    for i, j in pairs:
        a, b = elems[i], elems[j]
        assert add[i, j] == ref.index(a + b)
        assert mul[i, j] == ref.index(a * b)
    assert ((mul[1:] == spec.one).sum(axis=1) == 1).all()  # one inverse each
    assert [t.dtype for t in (add, mul, neg, inv)] == [np.int32] * 4
    assert chi is None or chi.dtype == np.int8
    assert not any(t.flags.writeable for t in (add, mul, neg, chi, inv) if t is not None)


def test_op_tables_consistency():
    # every entry, for each order that a command reaches
    for q in (q for q in ref.ORDERS if q <= 81):
        spec = gf.spec_for(q)
        _check_tables(spec, ((i, j) for i in range(q) for j in range(q)))


@pytest.mark.parametrize(
    "q", [121, 125, 128, 169] + [q for q in ref.ORDERS if 81 < q < 170 and ref.is_prime(q)]
)
def test_op_tables_sampled_pairs(q):
    rng = random.Random(q)
    _check_tables(gf.spec_for(q), [(rng.randrange(q), rng.randrange(q)) for _ in range(5000)])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
def test_axioms_gf49_random(a, b, c):
    spec, add, mul, neg, _ = tables(49)
    assert add[add[a, b], c] == add[a, add[b, c]]
    assert mul[mul[a, b], c] == mul[a, mul[b, c]]
    assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
    assert add[add[a, neg[b]], b] == a
    if b:
        inverse = np.flatnonzero(mul[b] == spec.one)[0]
        assert mul[mul[a, inverse], b] == a


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 80), st.integers(0, 40), st.integers(0, 40))
def test_pow_homomorphism_gf81(a, e1, e2):
    spec, _, mul, _, _ = tables(81)
    power = lambda e: _powers(mul, e, spec.one)[a]  # noqa: E731
    assert power(e1 + e2) == mul[power(e1), power(e2)]
    assert power(80) == spec.one  # Lagrange: the nonzero elements have order 80
