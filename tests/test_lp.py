"""Exact simplex tests: pinned optima, statuses, duals, and a float cross-check."""

from fractions import Fraction
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dihedralcalc import lp
from dihedralcalc.errors import VerificationError
from dihedralcalc.field import dot, dot_sign, field_init, real_cyclotomic
from dihedralcalc.lp import LPResult, lp_solve

F = Fraction
ZERO = real_cyclotomic(6).zero  # degree 1: the filtered sign path of production


def test_two_var_vertex():
    # max x+y s.t. x+2y<=4, 3x+y<=6
    res = lp_solve([[1, 2], [3, 1]], [4, 6], [1, 1], zero=ZERO)
    assert res.status == "optimal"
    assert res.optimum == F(14, 5)
    assert res.witness == [F(8, 5), F(6, 5)]


def test_minimize_sign():
    # min x = -max(-x)
    res = lp_solve([[-1, 0], [1, 0], [0, 1]], [-1, 3, 2], [-1, 0], zero=ZERO)
    assert res.status == "optimal"
    assert res.optimum == -1
    assert res.witness[0] == 1


def test_unbounded():
    res = lp_solve([[1, -1]], [1], [1, 1], zero=ZERO)
    assert res.status == "unbounded"


def test_infeasible():
    # x >= 1 together with x <= 1/2
    res = lp_solve([[-1], [1]], [-1, F(1, 2)], [1], zero=ZERO)
    assert res.status == "infeasible"


def test_empty_constraints():
    assert lp_solve([], [], [1, 1], zero=ZERO).status == "unbounded"
    res = lp_solve([], [], [-1, -1], zero=ZERO)
    assert res.status == "optimal"
    assert res.optimum == 0


def test_phase_one_then_optimize():
    # x >= 1, x <= 3
    res = lp_solve([[-1], [1]], [-1, 3], [1], zero=ZERO)
    assert res.status == "optimal" and res.optimum == 3
    res = lp_solve([[-1], [1]], [-1, 3], [-1], zero=ZERO)
    assert res.optimum == -1


def test_beale_degenerate_cycle_guard():
    # classic cycling instance: Bland's rule must terminate at 1/20
    rows = [
        [F(1, 4), -60, F(-1, 25), 9],
        [F(1, 2), -90, F(-1, 50), 3],
        [0, 0, 1, 0],
    ]
    res = lp_solve(rows, [0, 0, 1], [F(3, 4), -150, F(1, 50), -6], zero=ZERO)
    assert res.status == "optimal"
    assert res.optimum == F(1, 20)
    assert res.witness == [F(1, 25), 0, 1, 0]


def test_redundant_equality_rows():
    # x+y = 1 forced by a <=/>= pair, plus a duplicated >= row
    rows = [[1, 1], [-1, -1], [-1, -1], [1, -1]]
    rhs = [1, -1, -1, 1]
    res = lp_solve(rows, rhs, [2, 1], zero=ZERO)
    assert res.status == "optimal"
    assert res.optimum == 2
    assert res.witness == [1, 0]


def _check_dual(rows, rhs, objective, res: LPResult) -> None:
    zero = F(0)
    assert all(y >= zero for y in res.dual)
    d = len(objective)
    for j in range(d):
        lhs = sum((y * row[j] for y, row in zip(res.dual, rows)), zero)
        assert lhs >= objective[j]
    paid = sum((y * b for y, b in zip(res.dual, rhs)), zero)
    assert paid == res.optimum


def test_dual_certificate_small():
    rows = [[1, 2], [3, 1]]
    rhs = [4, 6]
    obj = [1, 1]
    res = lp_solve(rows, rhs, obj, zero=ZERO)
    _check_dual(rows, rhs, obj, res)


def test_dual_certificate_with_negated_row():
    rows = [[-1, 0], [1, 1]]
    rhs = [-1, 5]
    obj = [1, 2]
    res = lp_solve(rows, rhs, obj, zero=ZERO)
    # x >= 1 forces the vertex (1, 4): optimum 1 + 2*4
    assert res.optimum == 9
    assert res.witness == [1, 4]
    _check_dual(rows, rhs, obj, res)


def test_certificate_signs_columns_through_dot_sign(monkeypatch):
    # max x s.t. x + y <= 1: y is nonbasic, so its column y.A >= c is signed
    calls = []

    def counted(*args):
        calls.append(args)
        return dot_sign(*args)

    monkeypatch.setattr(lp, "dot_sign", counted)
    res = lp_solve([[1, 1]], [1], [1, 0], zero=ZERO)
    assert res.status == "optimal" and res.optimum == 1
    assert len(calls) == 1


def test_pivot_and_certificate_share_one_elimination(monkeypatch):
    # max x+y s.t. x+2y <= 4, 3x+y <= 6, x+y <= 10: K is the 2x2 block of
    # the first two rows, and the third row's slack stays basic
    rows, rhs, obj = [[1, 2], [3, 1], [1, 1]], [4, 6, 10], [1, 1]
    steps, dots = [], []

    def eliminate(*args):
        steps.append(args[1:3])
        return lp_eliminate(*args)

    def counted_dot(*args):
        dots.append(args)
        return dot(*args)

    lp_eliminate = lp._eliminate
    monkeypatch.setattr(lp, "_eliminate", eliminate)
    monkeypatch.setattr(lp, "dot", counted_dot)
    one = ZERO.descr.one
    t = lp._Tableau(rows, rhs, 2, ZERO, one)
    assert t.solve(obj) == "optimal"
    assert len(steps) == t.iterations > 0 and not dots
    # b is the last column: each basic value sits at the end of its row
    values = {j: row[-1] for j, row in zip(t.basis, t.rows)}
    assert values == {0: F(8, 5), 1: F(6, 5), 4: F(36, 5)}
    steps.clear()
    x, y = lp._certify(rows, rhs, obj, t.basis, ZERO, one,
                       lp.float_image(rows))
    assert x == [F(8, 5), F(6, 5)] and y == [F(2, 5), F(1, 5), 0]
    assert steps == [(0, 0), (1, 1)]  # one step per column of K
    # x_J (2), the basic slack's residual (1) and y_R (2)
    assert len(dots) == 5


def test_field_element_coefficients():
    k = real_cyclotomic(8)  # contains sqrt(2) = two_cos(1)
    r2 = k.two_cos(1)
    one = k.one
    # max x s.t. x <= sqrt(2)
    res = lp_solve([[one]], [r2], [one], zero=k.zero)
    assert res.status == "optimal"
    assert res.optimum == r2
    # max x+2y s.t. x + sqrt2*y <= 2, y <= sqrt2/2: vertex (1, sqrt2/2)
    half = k.from_rational(F(1, 2))
    two = k.from_rational(2)
    res = lp_solve([[one, r2], [k.zero, one]], [two, r2 * half], [one, two],
                   zero=k.zero)
    assert res.status == "optimal"
    assert res.optimum == one + r2
    assert res.witness == [one, r2 * half]


def test_field_element_infeasible_and_unbounded():
    k = field_init(3)
    theta = k.theta
    res = lp_solve([[-k.one]], [-theta], [k.one], zero=k.zero)
    assert res.status == "unbounded"
    res = lp_solve([[-k.one], [k.one]], [-theta, k.one], [k.one],
                   zero=k.zero)
    assert res.status == "infeasible"  # theta = 2cos(pi/6) > 1


def test_random_cross_check_against_float_solver():
    scipy_lp = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(20260815)
    for trial in range(40):
        m = rng.randint(1, 5)
        d = rng.randint(1, 4)
        rows = [[F(rng.randint(-4, 4)) for _ in range(d)] for _ in range(m)]
        rhs = [F(rng.randint(-3, 6)) for _ in range(m)]
        obj = [F(rng.randint(-3, 3)) for _ in range(d)]
        res = lp_solve(rows, rhs, obj, zero=ZERO)
        ref = scipy_lp([-float(c) for c in obj],
                       A_ub=[[float(v) for v in row] for row in rows],
                       b_ub=[float(b) for b in rhs],
                       bounds=[(0, None)] * d, method="highs")
        if res.status == "optimal":
            assert ref.status == 0, (trial, rows, rhs, obj)
            assert abs(float(res.optimum) - (-ref.fun)) < 1e-9
            _check_dual(rows, rhs, obj, res)
            for row, b in zip(rows, rhs):
                lhs = sum((v * x for v, x in zip(row, res.witness)), F(0))
                assert lhs <= b
        elif res.status == "infeasible":
            assert ref.status == 2, (trial, rows, rhs, obj)
        else:
            assert ref.status == 3, (trial, rows, rhs, obj)


def test_witness_is_feasible_vertex_exactly():
    rows = [[2, 1, 1], [1, 3, 2], [2, 1, 3]]
    rhs = [14, 22, 20]
    obj = [3, 2, 4]
    res = lp_solve(rows, rhs, obj, zero=ZERO)
    assert res.status == "optimal"
    for row, b in zip(rows, rhs):
        assert sum(v * x for v, x in zip(row, res.witness)) <= b
    assert sum(c * x for c, x in zip(obj, res.witness)) == res.optimum
    _check_dual(rows, rhs, obj, res)


# -- float-guided basis, exact certification ---------------------------------


def cold_solve(rows, rhs, objective, zero=ZERO) -> LPResult:
    """lp_solve on the exact tableau alone, without the float pass."""
    with mock.patch.object(lp, "_float_basis", return_value=None):
        return lp_solve(rows, rhs, objective, zero=zero)


def _check_primal(rows, rhs, objective, res: LPResult) -> None:
    assert all(x >= 0 for x in res.witness)
    for row, b in zip(rows, rhs):
        assert sum((v * x for v, x in zip(row, res.witness)), F(0)) <= b
    assert sum((c * x for c, x in zip(objective, res.witness)),
               F(0)) == res.optimum


# max x+y s.t. x+2y<=4, 3x+y<=6; columns x, y, slack 1, slack 2
TWO_ROWS = ([[1, 2], [3, 1]], [4, 6], [1, 1])
# max x+y s.t. x<=2, x-y<=1, x+y<=4; columns x, y, slacks 2, 3, 4
THREE_ROWS = ([[1, 0], [1, -1], [1, 1]], [2, 1, 4], [1, 1])
# max x+y s.t. x+y<=2, x-y<=4; both rows meet at (3, -1)
CROSSING = ([[1, 1], [1, -1]], [2, 4], [1, 1])
# max -x s.t. x<=1, x>=2: infeasible; columns x, slack 1, slack 2
INFEASIBLE = ([[1], [-1]], [1, -2], [-1])


@pytest.mark.parametrize("lp_data, basis", [
    (TWO_ROWS, [0, 3]),  # x = 4 leaves slack 2 at -6: primal infeasible
    (CROSSING, [0, 1]),  # y = (1, 0) is dual feasible but x_2 = -1
    (TWO_ROWS, [2, 3]),  # all slacks: x = 0 is feasible, y = 0 misses y.A >= c
    (THREE_ROWS, [0, 1, 4]),  # vertex (2, 1): y.A = c but y_2 = -1
    (TWO_ROWS, [0, 0]),  # a repeated structural column: singular
    (INFEASIBLE, [1, 1]),  # a repeated slack: singular, row 2 never checked
])
def test_wrong_float_basis_falls_back_to_cold_path(lp_data, basis):
    rows, rhs, obj = lp_data
    with mock.patch.object(lp, "_float_basis", return_value=(basis, 0)):
        res = lp_solve(rows, rhs, obj, zero=ZERO)
    assert res == cold_solve(rows, rhs, obj)
    if res.status == "optimal":
        _check_primal(rows, rhs, obj, res)
        _check_dual(rows, rhs, obj, res)


def test_float_pass_that_gives_up_falls_back():
    rows = [[F(1, 4), -60, F(-1, 25), 9], [F(1, 2), -90, F(-1, 50), 3],
            [0, 0, 1, 0]]
    rhs, obj = [0, 0, 1], [F(3, 4), -150, F(1, 50), -6]
    t = lp._FloatTableau(rows, rhs, len(obj))
    t.budget = 0
    with pytest.raises(ArithmeticError):
        t.solve([float(c) for c in obj])
    with mock.patch.object(lp._FloatTableau, "_pivot",
                           side_effect=ArithmeticError):
        res = lp_solve(rows, rhs, obj, zero=ZERO)
    assert res == cold_solve(rows, rhs, obj)
    assert res.optimum == F(1, 20)


def test_uncertified_optimum_raises():
    # the cold path certifies its optimum too; statuses need no certificate
    with mock.patch.object(lp, "_certify", return_value=None):
        with pytest.raises(VerificationError):
            lp_solve(*TWO_ROWS, zero=ZERO)
        assert lp_solve([[1, -1]], [1], [1, 1],
                        zero=ZERO).status == "unbounded"
        assert lp_solve([[-1], [1]], [-1, F(1, 2)], [1],
                        zero=ZERO).status == "infeasible"


def test_certified_float_basis_matches_cold_path():
    rows = [[2, 1, 1], [1, 3, 2], [2, 1, 3], [-1, 0, 0]]
    rhs, obj = [14, 22, 20, -1], [3, 2, 4]
    assert lp._float_basis(rows, rhs, obj) is not None
    with mock.patch.object(lp, "_Tableau", side_effect=AssertionError):
        res = lp_solve(rows, rhs, obj, zero=ZERO)
    assert res == cold_solve(rows, rhs, obj)


def test_float_overflow_solves_exactly():
    # float() of these coefficients raises OverflowError
    big = F(10 ** 400, 3)
    rows = [[big, 1], [1, big], [-1, 0]]
    rhs = [2 * big, big + 1, -1]
    obj = [1, big]
    assert lp._float_basis(rows, rhs, obj) is None
    res = lp_solve(rows, rhs, obj, zero=ZERO)
    assert res == cold_solve(rows, rhs, obj)
    assert res.status == "optimal" and res.witness == [1, 1]
    assert res.optimum == 1 + big
    _check_primal(rows, rhs, obj, res)
    _check_dual(rows, rhs, obj, res)


_coeff = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
# zero right-hand sides make degenerate vertices, negative ones phase-one rows
_rhs = st.sampled_from([F(0), F(0), F(-1), F(-1, 2)]) | _coeff


@st.composite
def small_lps(draw):
    m = draw(st.integers(0, 5))
    d = draw(st.integers(1, 4))
    rows, rhs = [], []
    for _ in range(m):
        if rows and draw(st.booleans()):
            # a repeated, scaled or negated earlier row makes A rank-deficient,
            # so phase one has zero-valued artificials to drive out
            k = draw(st.integers(0, len(rows) - 1))
            s = draw(st.sampled_from([F(1), F(2), F(-1), F(-1, 2)]))
            rows.append([s * v for v in rows[k]])
            rhs.append(draw(st.just(s * rhs[k]) | _rhs))
        else:
            rows.append([draw(_coeff) for _ in range(d)])
            rhs.append(draw(_rhs))
    obj = [draw(_coeff) for _ in range(d)]
    return rows, rhs, obj


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_float_guided_matches_cold_path(lp_data):
    rows, rhs, obj = lp_data
    res = lp_solve(rows, rhs, obj, zero=ZERO)
    cold = cold_solve(rows, rhs, obj)
    assert res.status == cold.status
    if res.status == "optimal":
        assert res.optimum == cold.optimum
        _check_primal(rows, rhs, obj, res)
        _check_dual(rows, rhs, obj, res)
