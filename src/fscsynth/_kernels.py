"""NumPy kernels for the float path.

Two entry points:

  eval_edges(...)   evaluate a batch of term-encoded polynomials at every
                    row of a matrix of float parameter vectors
  solve_linear(...) iterate x = A x + c in place by Jacobi sweeps until the
                    largest update drops below tol (returns sweeps used and
                    last delta). The package no longer calls it: float
                    solves are dense. It stays only because the benchmark
                    tracer (e2ebench/spans.py) wraps it by name, and goes
                    together with that span.

eval_edges works on the last axis only, so a whole swarm of parameter
vectors goes through in one call, and each row comes out bit for bit as it
would alone: products and sums run over contiguous segments of that row.
"""

from __future__ import annotations

import numpy as np


def eval_edges(term_coeffs, term_offsets, factor_offsets, factor_var,
               factor_exp, xx):
    """xx: (..., num_params + 1) with 1.0 in the last column; returns
    (..., num_polys)."""
    if len(term_coeffs) == 0:
        return np.zeros(xx.shape[:-1] + (len(term_offsets) - 1,))
    fv = np.take(xx, factor_var, axis=-1)  # C-contiguous, unlike xx[..., idx]
    np.power(fv, factor_exp, out=fv)
    prods = np.multiply.reduceat(fv, factor_offsets[:-1], axis=-1)
    prods *= term_coeffs
    return np.add.reduceat(prods, term_offsets[:-1], axis=-1)


def solve_linear(indptr, indices, data, c, x, tol, max_iter):
    n = len(c)
    if n == 0:
        return 0, 0.0
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    data = np.asarray(data, dtype=np.float64)
    rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    on_diag = indices == rows
    diag = np.bincount(rows[on_diag], weights=data[on_diag], minlength=n)
    # self-loop mass is folded into the update denominator
    degenerate = diag >= 1.0
    denom = np.where(degenerate, 1.0, 1.0 - diag)
    orow = rows[~on_diag]
    ocol = indices[~on_diag]
    odata = data[~on_diag]
    delta = 0.0
    for it in range(int(max_iter)):
        y = c + np.bincount(orow, weights=odata * x[ocol], minlength=n)
        y = np.where(degenerate, y, y / denom)
        delta = float(np.max(np.abs(y - x)))
        x[:] = y
        if delta <= tol:
            return it + 1, delta
    return int(max_iter), delta


class TermTable:
    """Flat encoding of polynomials for batched float evaluation.

    Every term gets at least one factor (constants point at a reserved slot
    holding 1.0) and every polynomial at least one term, so segment reduction
    never sees an empty segment.
    """

    def __init__(self, polys, param_index):
        self.num_params = len(param_index)
        coeffs = []
        term_offsets = [0]
        factor_offsets = [0]
        fvar = []
        fexp = []
        for poly in polys:
            items = poly.sorted_terms()
            if not items:
                items = [((), 0)]
            for mono, coeff in items:
                coeffs.append(float(coeff))
                if mono:
                    for name, e in mono:
                        fvar.append(param_index[name])
                        fexp.append(e)
                else:
                    fvar.append(self.num_params)
                    fexp.append(1)
                factor_offsets.append(len(fvar))
            term_offsets.append(len(coeffs))
        self.term_coeffs = np.asarray(coeffs, dtype=np.float64)
        self.term_offsets = np.asarray(term_offsets, dtype=np.intc)
        self.factor_offsets = np.asarray(factor_offsets, dtype=np.intc)
        self.factor_var = np.asarray(fvar, dtype=np.intc)
        self.factor_exp = np.asarray(fexp, dtype=np.intc)

    def __len__(self):
        return len(self.term_offsets) - 1

    def evaluate(self, x) -> np.ndarray:
        """x: a float vector ordered by the param_index given at build time,
        or a (points x params) matrix of them; one row of values per point."""
        x = np.asarray(x, dtype=np.float64)
        xx = np.empty(x.shape[:-1] + (self.num_params + 1,))
        xx[..., :self.num_params] = x
        xx[..., self.num_params] = 1.0
        return eval_edges(self.term_coeffs, self.term_offsets,
                          self.factor_offsets, self.factor_var,
                          self.factor_exp, xx)
