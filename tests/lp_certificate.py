"""Exact certificate for a final basis of ``scenopt.lp``, in rational arithmetic.

For min c'x s.t. A x <= b, given as floats, and d rows of A forming a basis,
``lex_certificate`` solves A_B x_B = b_B in ``fractions.Fraction`` and checks
exactly that

- x_B satisfies every row, and
- every basic row [lam_r, -(B^-1)_r,0, ..., -(B^-1)_r,d-1] of the dual, with
  B = A_B' and lam = -B^-1 c, is lexicographically positive.

Then for every small e > 0 the perturbed duals lam - sum_i e^(i+1) B^-1 e_i
are feasible for the cost c + sum_i e^(i+1) e_i and complementary to x_B, so
x_B is the exact lexicographic minimizer of (c'x, x_1, ..., x_d) over the
float data.  Nothing here uses floating point, so it can check the solver at
sizes where vertex enumeration cannot (Applegate, Cook, Dash and Espinoza,
"Exact solutions to linear programming problems", Oper. Res. Lett. 35(6),
2007).
"""

from __future__ import annotations

import math
from fractions import Fraction


def _inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of a square matrix of Fractions."""
    d = len(matrix)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(matrix)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        assert pivot is not None, "the basis is singular"
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [v / head for v in aug[col]]
        for r in range(d):
            factor = aug[r][col]
            if r != col and factor != 0:
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def _integer_row(values) -> list[int]:
    """Integers proportional to a row of floats, by a power of two."""
    ratios = [float(v).as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)  # every denominator is a power of two
    return [num * (scale // den) for num, den in ratios]


def lex_certificate(cost, rows_a, rows_b, basic, x) -> float:
    """Assert that the rows ``basic`` of (rows_a, rows_b) certify their
    vertex x_B as the exact lexicographic minimizer; return max |x - x_B|."""
    d = len(cost)
    a_b = [[Fraction(float(v)) for v in rows_a[r]] for r in basic]
    # y = (A_B')^-1, so lam = -y c and x_B' = b_B' y
    y = _inverse([list(col) for col in zip(*a_b)])
    c = [Fraction(float(v)) for v in cost]
    b_b = [Fraction(float(rows_b[r])) for r in basic]
    x_b = [sum(b_b[k] * y[k][j] for k in range(d)) for j in range(d)]
    for r in range(d):
        lam = -sum(y[r][j] * c[j] for j in range(d))
        key = [lam] + [-v for v in y[r]]
        lead = next(v for v in key if v != 0)
        assert lead > 0, f"basic row {basic[r]} is not lexicographically positive"
    # every row at x_B = p / scale, in integers
    scale = math.lcm(*(v.denominator for v in x_b))
    p = [int(v * scale) for v in x_b]
    for r in range(len(rows_b)):
        *a_r, b_r = _integer_row(list(rows_a[r]) + [rows_b[r]])
        assert sum(u * w for u, w in zip(a_r, p)) <= b_r * scale, f"row {r} is violated"
    return float(max(abs(Fraction(float(v)) - w) for v, w in zip(x, x_b)))

