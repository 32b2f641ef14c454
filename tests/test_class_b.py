from math import inf

import pytest

from pbdss.class_b import (
    ClassBSpec,
    construct1_node,
    construct1_parities,
    construct2_parities,
    construct_last_node,
    construct_node_heuristic,
    init_read_cost,
    psi_argmax,
    read_cost,
    update_read_cost,
)
from pbdss.layout import q_set, x_set


def test_construct1_worked_example_10_5():
    spec = construct1_parities(5, 7, 8, 1)
    # first node: one column symbol plus two row symbols
    for t in range(5):
        assert spec.node_parities(7)[t] == (
            ((2 + t) % 5, t),
            (t, (1 + t) % 5),
            (t, (2 + t) % 5),
        )
        assert spec.node_parities(8)[t] == (((3 + t) % 5, t), (t, (1 + t) % 5))
        assert spec.node_parities(9)[t] == (((4 + t) % 5, t),)


def test_construct1_6_4():
    spec = construct1_parities(4, 6, 5, 1)
    for t in range(4):
        assert spec.node_parities(6)[t] == (((2 + t) % 4, t), (t, (1 + t) % 4))


def test_construct1_q_term_partition_full_complement():
    # with the full complement of nodes, the leading terms cover each
    # column's expensive symbols exactly once
    k, n_a, tau = 6, 8, 1
    n_b = 2 * k - tau - 1
    spec = construct1_parities(k, n_a, n_b, tau)
    leads = [par[0] for node in spec.parities for par in node]
    assert len(set(leads)) == k * (k - tau - 1)
    assert set(leads) == {p for j in range(k) for p in q_set(j, k, tau)}


def test_construct1_tail_terms_live_in_row_x_set():
    spec = construct1_parities(5, 7, 8, 1)
    for node in spec.parities:
        for t, par in enumerate(node):
            xs = set(x_set(t, 5, 1))
            assert all(pos in xs for pos in par[1:])


def test_construct1_validation():
    with pytest.raises(ValueError):
        construct1_parities(5, 7, 9, 1)  # n_b >= 2k - tau
    with pytest.raises(ValueError):
        construct1_parities(5, 7, 8, 4)


def test_remark1_variant():
    spec = construct1_parities(5, 7, 8, 1, remark1=True)
    for node in spec.parities:
        for par in node:
            assert len(par) == 1
    with pytest.raises(ValueError):
        construct1_parities(5, 7, 7, 1, remark1=True)  # not the full complement


def test_init_read_cost_example():
    a = init_read_cost(4, 1)
    assert a[2][0] == inf
    assert a[0][0] == 4
    assert a[1][0] == 1


def test_psi_argmax():
    a = init_read_cost(4, 1)
    assert psi_argmax(a, q_set(0, 4, 1)) == [(2, 0), (3, 0)]
    m = [[1, 1], [1, 1]]
    assert psi_argmax(m, [(0, 0), (1, 1), (0, 1)]) == [(0, 0), (0, 1), (1, 1)]
    m2 = [[1, 9], [1, 1]]
    assert psi_argmax(m2, [(0, 0), (0, 1)]) == [(0, 1)]
    with pytest.raises(ValueError):
        psi_argmax(m, [])


def test_read_cost_examples():
    # reading just the parity suffices when all other terms sit in X_j
    assert read_cost((2, 0), [(2, 0), (0, 1), (0, 2)], 5, 1) == 1
    assert read_cost((2, 0), [(2, 0)], 5, 1) == 1
    # transpose pair: the partner costs rho - 1 since the lead symbol is
    # cached in the partner's row
    par = [(2, 0), (0, 2), (0, 1), (0, 3)]
    assert read_cost((0, 2), par, 5, 1) == 3
    with pytest.raises(ValueError):
        read_cost((2, 0), [(0, 1)], 5, 1)
    with pytest.raises(ValueError):
        read_cost((0, 4), [(0, 4)], 5, 3)  # offset 1 not in any Q set when tau=3


def test_update_read_cost_7_4():
    a = init_read_cost(4, 1)
    node = (((2, 0), (0, 2)),)
    a2 = update_read_cost(a, node, 4, 1)
    assert a2[2][0] == 1  # (0,2) lies in X_0
    assert a2[0][2] == 1  # (2,0) lies in X_2
    assert a[2][0] == inf  # original untouched
    a3 = update_read_cost(a2, ((),), 4, 1)
    assert a3 == a2


def test_update_read_cost_never_increases():
    k, tau = 6, 2
    a = init_read_cost(k, tau)
    spec = construct2_parities(k, 9, 7, tau)
    for node in spec.parities:
        a2 = update_read_cost(a, node, k, tau)
        for i in range(k):
            for j in range(k):
                assert a2[i][j] <= a[i][j]
        a = a2


def test_heuristic_7_4_example():
    spec = construct2_parities(4, 6, 5, 1)
    assert spec.parities[0] == (
        ((2, 0), (0, 2)),
        ((3, 1), (1, 3)),
        ((1, 2), (2, 3)),
        ((3, 0), (0, 1)),
    )


def test_heuristic_first_selection_pairs_when_k_at_least_2tau2():
    # k = 2(tau+1): the very first pick always finds a transpose pair
    for k, tau in [(4, 1), (6, 2), (8, 3)]:
        a = init_read_cost(k, tau)
        node = construct_node_heuristic(a, k - tau - 1, set(), k, tau)
        i, j = node[0][0]
        assert node[0][1] == (j, i)


def test_heuristic_exhausted_q_terms():
    k, tau = 4, 1
    a = init_read_cost(k, tau)
    all_q = {p for j in range(k) for p in q_set(j, k, tau)}
    node = construct_node_heuristic(a, 2, all_q, k, tau)
    assert all(par == () for par in node)


def test_construct_last_node_forced_pattern():
    # one column symbol left per column: the node must pick exactly those
    k, tau = 5, 1
    a = init_read_cost(k, tau)
    remaining = {((4 + t) % 5, t) for t in range(k)}
    used = {p for j in range(k) for p in q_set(j, k, tau)} - remaining
    node = construct_last_node(a, used, k, tau)
    assert {par[0] for par in node} == remaining
    assert all(len(par) == 1 for par in node)


def test_construct_last_node_single_candidate_and_short():
    k, tau = 4, 1
    a = init_read_cost(k, tau)
    all_q = {p for j in range(k) for p in q_set(j, k, tau)}
    used = all_q - {(2, 0)}
    node = construct_last_node(a, used, k, tau)
    assert node[0] == ((2, 0),)
    assert all(par == () for par in node[1:])  # short node, padded empty


def test_construct_last_node_deterministic():
    k, tau = 4, 1
    a = init_read_cost(k, tau)
    node = construct_last_node(a, set(), k, tau)
    assert node[0] == ((0, 1),)  # row-major lowest among the tied maxima
    all_q = {p for j in range(k) for p in q_set(j, k, tau)}
    picks = [par[0] for par in node]
    assert len(set(picks)) == k and set(picks) <= all_q
    assert construct_last_node(a, set(), k, tau) == node


def test_construct2_delegates_for_odd_k():
    spec1 = construct1_parities(5, 7, 8, 1)
    spec2 = construct2_parities(5, 7, 8, 1)
    assert spec2.construction == 2
    assert spec2.parities == spec1.parities


def test_construct2_delegates_for_small_even_k():
    # k < 2(tau+1)
    spec1 = construct1_parities(6, 9, 7, 4)
    spec2 = construct2_parities(6, 9, 7, 4)
    assert spec2.parities == spec1.parities


def test_construct2_copies_early_nodes():
    # nodes at or below the threshold match the closed form
    k, n_a, tau = 8, 10, 1
    n_b = 10
    spec2 = construct2_parities(k, n_a, n_b, tau)
    threshold = n_a + k // 2 - tau - 2
    for l in range(n_a, n_a + n_b - k):
        if l <= threshold:
            assert spec2.node_parities(l) == construct1_node(k, n_a, tau, l)


def test_class_b_spec_validation():
    with pytest.raises(ValueError):
        ClassBSpec(4, 1, 6, 9, 1, tuple())  # n_b too large for k, tau
    with pytest.raises(ValueError):
        ClassBSpec(4, 1, 6, 5, 1, tuple())  # wrong node count
    with pytest.raises(ValueError):
        ClassBSpec(4, 1, 6, 5, 1, ((((1, 0), (1, 0)),) * 4,))  # duplicate position


def test_json_roundtrip():
    spec = construct2_parities(4, 6, 5, 1)
    back = ClassBSpec.from_json_dict(spec.to_json_dict(), 4, 1, 6)
    assert back == spec
