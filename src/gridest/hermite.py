"""Orthonormal probabilists' Hermite polynomials and multi-index sets.

Univariate building blocks for the polynomial-chaos surrogate: the
basis is psi_k = He_k/sqrt(k!), orthonormal under the standard normal
measure, evaluated with the stable three-term recurrence

    psi_{k+1}(x) = (x psi_k(x) - sqrt(k) psi_{k-1}(x)) / sqrt(k+1).

Derivatives follow from He_k' = k He_{k-1}:

    psi_k'  = sqrt(k) psi_{k-1},
    psi_k'' = sqrt(k (k-1)) psi_{k-2}.

Multivariate basis functions are tensor products indexed by multi-
indices alpha with |alpha|_1 <= p, ordered graded-lexicographically.
"""
from __future__ import annotations

from itertools import product
from math import comb

import numpy as np


def hermite_table(p: int, x: np.ndarray) -> np.ndarray:
    """Values psi_k(x) for k = 0..p; shape (p+1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty((p + 1,) + x.shape)
    out[0] = 1.0
    if p >= 1:
        out[1] = x
    for k in range(1, p):
        out[k + 1] = (x * out[k] - np.sqrt(k) * out[k - 1]) / np.sqrt(k + 1)
    return out


def hermite_derivative_tables(p: int, x: np.ndarray):
    """(values, first, second) derivative tables, each (p+1,) + x.shape."""
    val = hermite_table(p, x)
    d1 = np.zeros_like(val)
    d2 = np.zeros_like(val)
    for k in range(1, p + 1):
        d1[k] = np.sqrt(k) * val[k - 1]
        if k >= 2:
            d2[k] = np.sqrt(k * (k - 1)) * val[k - 2]
    return val, d1, d2


def gauss_hermite(n_nodes: int):
    """Gauss nodes/weights for the standard normal weight, Sum w = 1."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    return nodes, weights / np.sqrt(2.0 * np.pi)


def n_basis(n: int, p: int) -> int:
    """Number of multi-indices with |alpha| <= p in n variables."""
    return comb(p + n, n)


def multi_index_set(n: int, p: int) -> np.ndarray:
    """All alpha in N^n with |alpha|_1 <= p, graded-lex order, shape (K, n).

    The zero index comes first; within a total degree, indices sort
    lexicographically with the leading dimension most significant.
    """
    if n < 1 or p < 0:
        raise ValueError("need n >= 1 and p >= 0")
    idx = [a for a in product(range(p + 1), repeat=n) if sum(a) <= p]
    idx.sort(key=lambda a: (sum(a), tuple(-c for c in a)))
    out = np.array(idx, dtype=int)
    assert out.shape[0] == n_basis(n, p)
    return out


def basis_matrix(indices: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate the tensor basis at standardized points.

    indices: (K, n) multi-index array; xi: (N, n) points.
    Returns (N, K) with column k holding prod_j psi_{alpha_kj}(xi_ij).
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    n = indices.shape[1]
    # factors[k, j] = psi_{alpha_kj}(xi[:, j]), multiplied in dimension
    # order; the (N, K) result is C-ordered, the layout its BLAS products take
    factors = hermite_table(int(indices.max(initial=0)), xi)[
        indices, ..., np.arange(n)]
    out = factors[:, 0]
    for j in range(1, n):
        out = out * factors[:, j]
    return np.ascontiguousarray(out.T)


def basis_derivatives(indices: np.ndarray, xi_point: np.ndarray):
    """Basis values, gradients and Hessians at one standardized point.

    Returns (psi (K,), dpsi (K, n), d2psi (K, n, n)) with derivatives
    taken with respect to the standardized coordinates.
    """
    xi_point = np.asarray(xi_point, dtype=float)
    k_total, n = indices.shape
    # univariate factors per (basis, dimension)
    v, dv, ddv = (table[indices, ..., np.arange(n)] for table in
                  hermite_derivative_tables(int(indices.max(initial=0)),
                                            xi_point))

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
