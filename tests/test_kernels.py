"""The numeric kernels and their table encoding."""

import random
from fractions import Fraction

import numpy as np

from fscsynth._kernels import TermTable, solve_linear
from fscsynth.polynomials import Polynomial

F = Fraction


def _random_poly(rng, names):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple(sorted(
            (rng.choice(names), rng.randint(1, 3))
            for _ in range(rng.randint(0, 2))))
        terms[mono] = terms.get(mono, F(0)) + F(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(terms)


def _csr(rows, n):
    indptr = [0]
    indices = []
    data = []
    for i in range(n):
        for j, v in sorted(rows.get(i, {}).items()):
            indices.append(j)
            data.append(v)
        indptr.append(len(indices))
    return (np.asarray(indptr, dtype=np.intc),
            np.asarray(indices, dtype=np.intc),
            np.asarray(data, dtype=np.float64))


def _assert_staged(table, seed):
    """Every row of a batched evaluation equals the one-vector algorithm
    with all three stages (powers, products, sums), segment by segment,
    and a lone evaluation of that row, bit for bit."""
    X = np.random.default_rng(seed).uniform(0.05, 0.95, (25, table.num_params))
    got = table.evaluate(X)
    for x, row in zip(X, got):
        xx = np.append(x, 1.0)
        fv = xx[table.factor_var] ** table.factor_exp
        prods = np.multiply.reduceat(fv, table.factor_offsets[:-1]) * table.term_coeffs
        want = np.add.reduceat(prods, table.term_offsets[:-1])
        assert row.tobytes() == want.tobytes()
        assert row.tobytes() == table.evaluate(x).tobytes()


class TestTermTable:
    def test_matches_direct_evaluation(self):
        rng = random.Random(60)
        names = ["a", "b", "c"]
        pidx = {n: i for i, n in enumerate(names)}
        for _ in range(30):
            polys = [_random_poly(rng, names) for _ in range(rng.randint(1, 8))]
            table = TermTable(polys, pidx)
            assert len(table) == len(polys)
            x = np.array([rng.uniform(0.05, 0.95) for _ in names])
            got = table.evaluate(x)
            want = [float(p.evaluate({n: x[pidx[n]] for n in names}))
                    for p in polys]
            assert np.allclose(got, want, atol=1e-12)

    def test_matrix_rows_match_lone_vectors(self):
        # long polynomials (up to 12 terms) reach numpy's pairwise summation
        rng = random.Random(64)
        names = ["a", "b", "c", "d"]
        pidx = {n: i for i, n in enumerate(names)}
        polys = [_random_poly(rng, names) for _ in range(20)]
        for _ in range(6):
            polys.append(sum((_random_poly(rng, names) for _ in range(4)),
                             Polynomial()))
        assert max(len(p.sorted_terms()) for p in polys) >= 8
        _assert_staged(TermTable(polys, pidx), 64)
        assert TermTable([], {}).evaluate(np.zeros((3, 0))).shape == (3, 0)

    def test_linear_tables_skip_powers_and_products(self):
        # one factor of exponent 1 per term, as on the substituted chains:
        # both skipped stages are identities, so rows stay bit-identical
        rng = random.Random(65)
        names = ["a", "b", "c", "d"]
        pidx = {n: i for i, n in enumerate(names)}
        linear = [sum((Polynomial.variable(n) * Polynomial.constant(
                           F(rng.randint(-9, 9), rng.randint(1, 9)))
                       for n in rng.sample(names, rng.randint(1, 4))),
                      Polynomial.constant(F(rng.randint(0, 9), 7)))
                  for _ in range(12)]
        table = TermTable(linear, pidx)
        assert not table._powers and not table._products
        _assert_staged(table, 65)
        # a power and a product switch their stages back on
        a, b = Polynomial.variable("a"), Polynomial.variable("b")
        table = TermTable(linear + [a * a, a * b], pidx)
        assert table._powers and table._products
        _assert_staged(table, 66)
        table = TermTable(linear + [a * b], pidx)
        assert not table._powers and table._products
        _assert_staged(table, 67)

    def test_constants_and_zero_polynomials(self):
        pidx = {"a": 0}
        table = TermTable([Polynomial.constant(F(3, 4)), Polynomial()], pidx)
        got = table.evaluate(np.array([0.3]))
        assert got[0] == 0.75 and got[1] == 0.0

    def test_empty_table(self):
        table = TermTable([], {})
        assert len(table) == 0
        assert table.evaluate(np.zeros(0)).shape == (0,)


class TestSolveLinear:
    def test_against_dense_solve(self):
        rng = random.Random(61)
        for _ in range(10):
            n = rng.randint(2, 12)
            rows = {}
            for i in range(n):
                cols = rng.sample(range(n), rng.randint(1, min(3, n)))
                # keep the spectral radius below one
                rows[i] = {j: rng.uniform(0.05, 0.9 / len(cols)) for j in cols}
            c = np.array([rng.uniform(0.0, 1.0) for _ in range(n)])
            A = np.zeros((n, n))
            for i, row in rows.items():
                for j, v in row.items():
                    A[i, j] = v
            want = np.linalg.solve(np.eye(n) - A, c)
            indptr, indices, data = _csr(rows, n)
            x = np.zeros(n)
            sweeps, delta = solve_linear(indptr, indices, data, c.copy(), x,
                                         1e-12, 100000)
            assert delta <= 1e-12
            assert sweeps >= 1
            assert np.allclose(x, want, atol=1e-9)

    def test_self_loop_row_is_stable(self):
        # a row whose only entry is a unit self-loop must not divide by zero
        rows = {0: {1: 0.5}, 1: {1: 1.0}}
        indptr, indices, data = _csr(rows, 2)
        c = np.array([0.25, 0.0])
        x = np.zeros(2)
        sweeps, delta = solve_linear(indptr, indices, data, c, x, 1e-12, 1000)
        assert delta <= 1e-12
        assert x[1] == 0.0 and abs(x[0] - 0.25) < 1e-12

    def test_hitting_the_sweep_cap(self):
        # two states trading mass converge far too slowly for five sweeps
        rows = {0: {1: 0.999}, 1: {0: 0.999}}
        indptr, indices, data = _csr(rows, 2)
        x = np.zeros(2)
        sweeps, delta = solve_linear(indptr, indices, data,
                                     np.array([1.0, 0.0]), x, 1e-15, 5)
        assert sweeps == 5
        assert delta > 1e-15
