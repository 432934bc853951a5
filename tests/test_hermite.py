"""Orthonormal Hermite basis: recurrences, quadrature, multi-indices."""
import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from gridest.hermite import (basis_derivatives, basis_matrix, gauss_hermite,
                             hermite_derivative_tables, hermite_table,
                             multi_index_set, n_basis)


def test_low_order_closed_forms():
    x = np.linspace(-3, 3, 11)
    tab = hermite_table(4, x)
    assert np.allclose(tab[0], 1.0)
    assert np.allclose(tab[1], x)
    assert np.allclose(tab[2], (x**2 - 1) / np.sqrt(2))
    assert np.allclose(tab[3], (x**3 - 3 * x) / np.sqrt(6))
    assert np.allclose(tab[4], (x**4 - 6 * x**2 + 3) / np.sqrt(24))


def test_orthonormal_under_gauss_rule():
    # Gram matrix under an exact-degree rule must be the identity
    p = 5
    nodes, weights = gauss_hermite(p + 1)
    tab = hermite_table(p, nodes)
    gram = (tab * weights) @ tab.T
    assert np.max(np.abs(gram - np.eye(p + 1))) < 1e-10


def test_three_node_rule_closed_form():
    nodes, weights = gauss_hermite(3)
    assert np.allclose(sorted(nodes), [-np.sqrt(3), 0.0, np.sqrt(3)])
    assert np.allclose(sorted(weights), sorted([1 / 6, 2 / 3, 1 / 6]))


def test_weights_normalized_to_probability():
    for n in (1, 2, 3, 5, 9):
        _, w = gauss_hermite(n)
        assert abs(w.sum() - 1.0) < 1e-13
        raw = hermegauss(n)[1]
        assert np.allclose(w, raw / np.sqrt(2 * np.pi))


def test_derivative_tables_match_finite_differences():
    x = np.array([0.3, -1.2, 2.1])
    val, d1, d2 = hermite_derivative_tables(5, x)
    h = 1e-6
    up = hermite_table(5, x + h)
    dn = hermite_table(5, x - h)
    assert np.allclose(d1, (up - dn) / (2 * h), atol=1e-8)
    h2 = 1e-4
    up2 = hermite_table(5, x + h2)
    dn2 = hermite_table(5, x - h2)
    assert np.allclose(d2, (up2 - 2 * val + dn2) / h2**2, atol=1e-6)
    assert np.allclose(val, hermite_table(5, x))


def test_n_basis_formula():
    assert n_basis(3, 2) == 10
    assert n_basis(3, 1) == 4
    assert n_basis(3, 3) == 20
    assert n_basis(2, 4) == 15
    assert n_basis(1, 7) == 8


def test_multi_index_graded_order():
    idx = multi_index_set(3, 2)
    assert len(idx) == 10
    assert tuple(idx[0]) == (0, 0, 0)
    degrees = [int(sum(a)) for a in idx]
    assert degrees == sorted(degrees)
    # within a degree block, first coordinate dominates
    assert tuple(idx[1]) == (1, 0, 0)
    assert tuple(idx[4]) == (2, 0, 0)
    rows = [tuple(a) for a in idx]
    assert len(set(rows)) == len(rows)  # no duplicates


def test_basis_matrix_and_point_derivatives():
    idx = multi_index_set(3, 2)
    xi = np.array([[0.0, 0.0, 0.0], [1.0, -0.5, 0.3]])
    v = basis_matrix(idx, xi)
    assert v.shape == (2, 10)
    assert v[0, 0] == 1.0
    psi, dpsi, d2psi = basis_derivatives(idx, xi[1])
    assert np.allclose(psi, v[1])
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (basis_matrix(idx, (xi[1] + e)[None, :])[0]
              - basis_matrix(idx, (xi[1] - e)[None, :])[0]) / (2 * h)
        assert np.allclose(dpsi[:, j], fd, atol=1e-8)
    # Hessian symmetric in the coordinate pair
    assert np.allclose(d2psi, np.swapaxes(d2psi, 1, 2))


def _reference_basis_matrix(indices, xi):
    """The loop formula: column k multiplies psi_{alpha_kj}(xi_j) over the
    dimensions with alpha_kj > 0, in dimension order."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    n = indices.shape[1]
    p = int(indices.max(initial=0))
    tables = [hermite_table(p, xi[:, j]) for j in range(n)]
    out = np.ones((xi.shape[0], indices.shape[0]))
    for k, alpha in enumerate(indices):
        for j in range(n):
            if alpha[j] > 0:
                out[:, k] *= tables[j][alpha[j]]
    return out


def _reference_basis_derivatives(indices, xi_point):
    """The loop formula: the differentiated factors first, then the
    others, each in dimension order."""
    xi_point = np.asarray(xi_point, dtype=float)
    k_total, n = indices.shape
    p = int(indices.max(initial=0))
    val, d1, d2 = hermite_derivative_tables(p, xi_point)
    v = np.empty((k_total, n))
    dv = np.empty((k_total, n))
    ddv = np.empty((k_total, n))
    for j in range(n):
        v[:, j] = val[indices[:, j], j]
        dv[:, j] = d1[indices[:, j], j]
        ddv[:, j] = d2[indices[:, j], j]
    psi = np.prod(v, axis=1)
    dpsi = np.empty((k_total, n))
    d2psi = np.empty((k_total, n, n))
    for j in range(n):
        others = np.prod(np.delete(v, j, axis=1), axis=1)
        dpsi[:, j] = dv[:, j] * others
        d2psi[:, j, j] = ddv[:, j] * others
        for l in range(j + 1, n):
            rest = np.prod(np.delete(v, (j, l), axis=1), axis=1)
            cross = dv[:, j] * dv[:, l] * rest
            d2psi[:, j, l] = cross
            d2psi[:, l, j] = cross
    return psi, dpsi, d2psi


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_matches_loop_reference_bitwise(n):
    rng = np.random.default_rng(n)
    xi = 1.5 * rng.standard_normal((12, n))
    xi[0] = 0.0
    xi[1::3, 0] = 0.0
    xi[2::4, -1] = 0.0
    for p in range(6):
        idx = multi_index_set(n, p)
        assert np.array_equal(basis_matrix(idx, xi),
                              _reference_basis_matrix(idx, xi))
        for point in xi[:5]:
            for got, want in zip(basis_derivatives(idx, point),
                                 _reference_basis_derivatives(idx, point)):
                assert np.array_equal(got, want)


def test_multi_index_set_rejects_bad_arguments():
    with pytest.raises(ValueError):
        multi_index_set(0, 2)
    with pytest.raises(ValueError):
        multi_index_set(3, -1)
