import numpy as np
import pytest
from hypothesis import given, strategies as st

from ramanpairs import algebra
from ramanpairs.algebra import CONTRACT0, contract, dagger, dissipator, idx, levels, lift, op

from reference import DAGGER0, POPULATION0

LEVEL = st.sampled_from(algebra.LEVELS)
INDEX = st.integers(min_value=1, max_value=16)


def test_paper_row_anchors():
    assert idx("d", "b") == 14
    assert idx("c", "a") == 9
    assert idx("a", "a") == 1


def test_row_major_order():
    expected = [x + y for x in "abcd" for y in "abcd"]
    assert [" ".join(levels(m)).replace(" ", "") for m in range(1, 17)] == expected


def test_invalid_label_rejected():
    with pytest.raises(ValueError):
        idx("e", "a")
    with pytest.raises(ValueError):
        idx("a", "x")
    with pytest.raises(ValueError):
        levels(0)
    with pytest.raises(ValueError):
        levels(17)


def test_dagger_examples():
    assert dagger(14) == 8
    assert dagger(1) == 1
    assert dagger(9) == 3


def test_contract_examples():
    assert contract(idx("a", "b"), idx("b", "c")) == idx("a", "c")
    assert contract(idx("a", "b"), idx("c", "b")) is None
    assert contract(idx("d", "b"), idx("b", "d")) == idx("d", "d")


@given(x=LEVEL, y=LEVEL)
def test_idx_levels_roundtrip(x, y):
    assert levels(idx(x, y)) == (x, y)


@given(m=INDEX)
def test_dagger_involutive(m):
    assert dagger(dagger(m)) == m


@given(m=INDEX, n=INDEX)
def test_contract_matches_inner_labels(m, n):
    _, y = levels(m)
    u, _ = levels(n)
    if y == u:
        assert contract(m, n) is not None
    else:
        assert contract(m, n) is None


def test_exactly_64_products_survive():
    count = sum(contract(m, n) is not None for m in range(1, 17) for n in range(1, 17))
    assert count == 64


@given(m=INDEX, n=INDEX)
def test_dagger_antihomomorphism(m, n):
    left = contract(m, n)
    right = contract(dagger(n), dagger(m))
    if left is None:
        assert right is None
    else:
        assert dagger(left) == right


def test_zero_based_tables_consistent():
    for m in range(1, 17):
        assert DAGGER0[m - 1] == dagger(m) - 1
        for n in range(1, 17):
            p = contract(m, n)
            assert CONTRACT0[m - 1, n - 1] == (-1 if p is None else p - 1)
    assert list(POPULATION0) == [0, 5, 10, 15]
    assert np.array_equal(np.sort(DAGGER0), np.arange(16))


def test_op_is_the_row_major_unit_matrix():
    for m in range(1, 17):
        x, y = levels(m)
        expected = np.zeros((4, 4))
        expected["abcd".index(x), "abcd".index(y)] = 1.0
        assert np.array_equal(op(x, y), expected)
    with pytest.raises(ValueError):
        op("a", "e")


def test_lift_and_dissipator_act_on_every_unit_matrix():
    """Row m of each 16x16 lift expands the 4x4 action on E_m over the unit matrices E_n."""
    rng = np.random.default_rng(11)
    basis = np.stack([op(*levels(m)) for m in range(1, 17)])
    for _ in range(5):
        h, jump = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        n = jump.conj().T @ jump
        hamiltonian, lindblad = lift(h), dissipator(1.0, jump)
        for m, e in enumerate(basis):
            commutator = 1j * (h @ e - e @ h)
            damping = jump.conj().T @ e @ jump - 0.5 * (n @ e + e @ n)
            assert np.max(np.abs(np.tensordot(hamiltonian[m], basis, axes=1) - commutator)) < 1e-14
            assert np.max(np.abs(np.tensordot(lindblad[m], basis, axes=1) - damping)) < 1e-13
        assert np.max(np.abs(dissipator(0.3, jump) - 0.3 * lindblad)) < 1e-15
