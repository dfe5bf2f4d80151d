"""Field arithmetic: axioms, character, norm, and the fixed modulus table."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseyforge import gf


SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]
ODD_ORDERS_49 = [3, 5, 7, 9, 11, 13, 25, 27, 49]


def test_modulus_table_entries_are_irreducible():
    for q, mod in gf.modulus_table().items():
        p, k = gf._factor_prime_power(q)
        assert len(mod) == k + 1 and mod[-1] == 1
        assert gf._poly_is_irreducible(mod, p)


def test_spec_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        gf.FieldSpec(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        gf.FieldSpec(4, 1)  # characteristic not prime
    with pytest.raises(ValueError):
        gf.FieldSpec(13, 3)  # 2197 not in the table


def test_parse_order():
    assert gf.parse_order("3^2") == 9
    assert gf.parse_order("13") == 13
    assert gf.parse_order(49) == 49


def test_order_cap_rejects_before_factoring():
    # 100000000000031 is prime: trial division to its square root took
    # seconds, and a prime near 10^18 would take minutes
    start = time.perf_counter()
    for reject in (
        lambda: gf.spec_for(100000000000031),
        lambda: gf.spec_for(1000000000000000003),
        lambda: gf.spec_for("2^1000000000000"),
        lambda: gf.FieldSpec(1000000000000000003, 1),
        lambda: gf.FieldSpec(3, 10**18),
    ):
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            reject()
    assert time.perf_counter() - start < 1.0
    assert gf.spec_for("3^2").q == 9 and gf.spec_for(9973).q == 9973  # largest prime under the cap


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    spec = gf.spec_for(q)
    elems = list(spec.elements())
    assert len(elems) == q
    assert len(set(elems)) == q
    zero, one = spec.zero(), spec.one()
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a * zero == zero
        if a:
            assert a * a.inverse() == one
            assert a / a == one
    # associativity/commutativity/distributivity on all pairs, sampled triples
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
    for a in elems[:: max(1, q // 5)]:
        for b in elems[:: max(1, q // 5)]:
            for c in elems[:: max(1, q // 5)]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_mixed_spec_arithmetic_rejected():
    a = gf.spec_for(7).element(3)
    b = gf.spec_for(5).element(3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        gf.field_arith(a, b, "mul")


def test_division_by_zero():
    spec = gf.spec_for(9)
    with pytest.raises(ZeroDivisionError):
        spec.one() / spec.zero()
    with pytest.raises(ZeroDivisionError):
        spec.zero().inverse()


def test_field_arith_kinds():
    spec = gf.spec_for(7)
    a, b = spec.element(3), spec.element(5)
    assert gf.field_arith(a, b, "add") == spec.element(1)
    assert gf.field_arith(a, b, "sub") == spec.element(5)
    assert gf.field_arith(a, b, "mul") == spec.one()  # 3*5 = 15 = 1 (mod 7)
    assert gf.field_arith(a, b, "div") == a * b.inverse()
    assert gf.field_arith(a, 6, "pow") == spec.one()  # Fermat
    with pytest.raises(ValueError):
        gf.field_arith(a, b, "xor")
    with pytest.raises(ValueError):
        gf.field_arith(a, b, "pow")


def test_gf9_multiplication_example():
    spec = gf.spec_for(9)  # modulus x^2 + 1
    x = spec.element((0, 1))
    assert x * x == spec.element(2)  # x^2 = -1 = 2


def test_pow_negative_exponent():
    spec = gf.spec_for(25)
    a = spec.element((3, 4))
    assert a**-1 == a.inverse()
    assert a**-3 == (a**3).inverse()
    assert a**0 == spec.one()
    # every nonzero element of every tabled extension field, 844 in all
    for q in gf.MODULI:
        spec = gf.spec_for(q)
        one = spec.one()
        for a in spec.elements():
            if a:
                assert a * a.inverse() == one


@pytest.mark.parametrize("q", ODD_ORDERS_49)
def test_character_counts(q):
    spec = gf.spec_for(q)
    chis = [gf.quadratic_character(a) for a in spec.elements()]
    assert chis.count(0) == 1
    assert chis.count(1) == (q - 1) // 2
    assert chis.count(-1) == (q - 1) // 2


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_character_multiplicative(q):
    spec = gf.spec_for(q)
    elems = list(spec.elements())
    for a in elems:
        for b in elems:
            assert gf.quadratic_character(a * b) == gf.quadratic_character(
                a
            ) * gf.quadratic_character(b)


def test_character_zero_and_squares_mod7():
    spec = gf.spec_for(7)
    assert gf.quadratic_character(spec.zero()) == 0
    squares = {i for i in range(1, 7) if gf.quadratic_character(spec.element(i)) == 1}
    assert squares == {1, 2, 4}


def test_character_rejects_even_order():
    with pytest.raises(ValueError):
        gf.quadratic_character(gf.spec_for(4).one())
    with pytest.raises(ValueError):
        gf.smallest_nonresidue(gf.spec_for(8))


@pytest.mark.parametrize("q,expected", [(3, 2), (5, 2), (7, 3), (11, 2), (13, 2)])
def test_smallest_nonresidue_prime_fields(q, expected):
    spec = gf.spec_for(q)
    assert gf.smallest_nonresidue(spec) == spec.element(expected)


def test_smallest_nonresidue_gf9():
    spec = gf.spec_for(9)
    nr = gf.smallest_nonresidue(spec)
    assert gf.quadratic_character(nr) == -1
    # canonical order: 0, 1, 2, x, 1+x, ... ; 1 and 2 are squares, 1+x is not
    assert nr == spec.element((1, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 25, 27])
def test_frobenius_is_automorphism(q):
    spec = gf.spec_for(q)
    elems = list(spec.elements())
    images = {gf.frobenius(a) for a in elems}
    assert len(images) == q
    for a in elems:
        for b in elems:
            assert gf.frobenius(a + b) == gf.frobenius(a) + gf.frobenius(b)
            assert gf.frobenius(a * b) == gf.frobenius(a) * gf.frobenius(b)


def test_norm_gf4():
    spec = gf.spec_for(4)
    w = spec.element((0, 1))
    assert gf.conjugate_norm(w) == spec.one()  # w * w^2 = w^3 = 1
    assert gf.conjugate_norm(spec.zero()) == spec.zero()
    assert gf.conjugate_norm(spec.one()) == spec.one()


def test_norm_fibers_gf9():
    spec = gf.spec_for(9)
    fibers: dict[gf.FieldElement, int] = {}
    for a in spec.elements():
        if a:
            n = gf.conjugate_norm(a)
            fibers[n] = fibers.get(n, 0) + 1
    # norm maps GF(9)* onto GF(3)* with fibers of size q+1 = 4
    assert set(fibers.values()) == {4}
    assert len(fibers) == 2
    for n in fibers:
        assert gf.frobenius(n) == n  # lands in the prime subfield


def test_conjugate_is_involution_fixing_subfield():
    spec = gf.spec_for(25)
    sub = [a for a in spec.elements() if gf.conjugate(a) == a]
    assert len(sub) == 5
    for a in spec.elements():
        assert gf.conjugate(gf.conjugate(a)) == a
        assert gf.conjugate_norm(a) == a * gf.conjugate(a)


def test_conjugate_norm_rejects_odd_degree():
    with pytest.raises(ValueError):
        gf.conjugate_norm(gf.spec_for(27).one())
    with pytest.raises(ValueError):
        gf.conjugate_norm(gf.spec_for(7).one())


def test_canonical_order_and_index():
    spec = gf.spec_for(27)
    elems = list(spec.elements())
    assert [spec.index(a) for a in elems] == list(range(27))
    coeff_tuples = [a.coeffs for a in elems]
    assert coeff_tuples == sorted(coeff_tuples)


def _check_tables(spec, pairs):
    """op_tables against element arithmetic on the given index pairs."""
    tabs = gf.op_tables(spec)
    elems = list(spec.elements())
    assert tabs.neg == tuple(spec.index(-a) for a in elems)
    if spec.q % 2:
        assert tabs.chi == tuple(gf.quadratic_character(a) for a in elems)
    else:
        assert tabs.chi is None
    for i, j in pairs:
        a, b = elems[i], elems[j]
        assert tabs.add[i][j] == spec.index(a + b)
        assert tabs.mul[i][j] == spec.index(a * b)
    arrays = tabs.arrays
    assert arrays.add.tolist() == list(map(list, tabs.add))
    assert arrays.mul.tolist() == list(map(list, tabs.mul))
    assert arrays.neg.tolist() == list(tabs.neg)
    assert (arrays.chi is None) == (tabs.chi is None)
    if tabs.chi is not None:
        assert arrays.chi.tolist() == list(tabs.chi)
    assert not any(t.flags.writeable for t in arrays if t is not None)


def test_op_tables_consistency():
    # every entry, for each order that a command reaches
    for q in (q for q in gf.modulus_table() if q <= 81):
        spec = gf.spec_for(q)
        _check_tables(spec, ((i, j) for i in range(q) for j in range(q)))


@pytest.mark.parametrize(
    "q", [121, 125, 128, 169] + [q for q in gf.modulus_table() if 81 < q < 170 and gf._is_prime(q)]
)
def test_op_tables_sampled_pairs(q):
    rng = random.Random(q)
    _check_tables(gf.spec_for(q), [(rng.randrange(q), rng.randrange(q)) for _ in range(5000)])


def test_op_tables_use_no_element_arithmetic(monkeypatch):
    spec = gf.spec_for(81)
    expected = gf.op_tables(spec)

    def refuse(*args):
        raise AssertionError("field element arithmetic in op_tables")

    for name in ("__add__", "__mul__", "__pow__", "__neg__", "__sub__"):
        monkeypatch.setattr(gf.FieldElement, name, refuse)
    got = gf.op_tables.__wrapped__(spec)  # bypass the cache
    assert got[:4] == expected[:4]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
def test_axioms_gf49_random(i, j, k):
    spec = gf.spec_for(49)
    a, b, c = spec.element_at(i), spec.element_at(j), spec.element_at(k)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == a + (-b)
    if b:
        assert (a / b) * b == a


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 80), st.integers(-20, 20), st.integers(-20, 20))
def test_pow_homomorphism_gf81(i, e1, e2):
    spec = gf.spec_for(81)
    a = spec.element_at(i)
    assert a ** (e1 + e2) == (a**e1) * (a**e2)
