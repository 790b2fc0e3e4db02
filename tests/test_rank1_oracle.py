import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from satake.laurent import LaurentPoly, ONE, VMonomial
from satake.rank1_oracle import Cyclotomic, Rank1Cell, Rank1Oracle, half_power, is_prime


@pytest.fixture(scope="module")
def oracle():
    return Rank1Oracle("PGL2")


# -- cyclotomic arithmetic -------------------------------------------------------


def test_full_character_sum_vanishes():
    for p in (3, 5, 7):
        total = Cyclotomic(p)
        for a in range(p):
            total = total + Cyclotomic.zeta(p, a)
        assert total == 0


def test_zeta_relations():
    z = Cyclotomic.zeta(5, 1)
    assert Cyclotomic.zeta(5, 5) == 1
    power = Cyclotomic.integer(5, 1)
    for _ in range(5):
        power = power * z
    assert power == 1
    assert (z + Cyclotomic.integer(5, 1)) * (z - Cyclotomic.integer(5, 1)) == z * z - Cyclotomic.integer(5, 1)


def test_arithmetic_results_skip_the_primality_check(monkeypatch):
    import satake.rank1_oracle as rank1_oracle

    z, one = Cyclotomic.zeta(5, 1), Cyclotomic.integer(5, 1)

    def refuse(n):
        raise AssertionError("is_prime ran on an arithmetic result")

    monkeypatch.setattr(rank1_oracle, "is_prime", refuse)
    assert Cyclotomic.zeta(5, 2).vec == (0, 0, 1, 0)
    assert Cyclotomic.zeta(5, 4).vec == (-1, -1, -1, -1)
    assert (z + one) * (z - one) == z * z + (-one)
    assert (3 * z).vec == (0, 3, 0, 0)
    with pytest.raises(ValueError, match="mixed"):
        z + Cyclotomic._result(3, (0, 1))


def test_to_integer_guards():
    z = Cyclotomic.zeta(3, 1)
    with pytest.raises(ValueError):
        z.to_integer()
    assert (z * z * z).to_integer() == 1
    assert Cyclotomic.integer(3, -4).to_integer() == -4
    with pytest.raises(ValueError):
        Cyclotomic(4)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3, 0) + Cyclotomic.zeta(5, 0)


# -- cells ----------------------------------------------------------------------------


def test_cell_examples():
    c = Rank1Cell.build(2, 0)
    assert c.dim == 1 and c.coordinates == (-1,)
    assert Rank1Cell.build(1, 0) is None  # parity
    assert Rank1Cell.build(3, 5) is None  # outside the closure
    point = Rank1Cell.build(2, -2)
    assert point.dim == 0 and point.coordinates == ()
    top = Rank1Cell.build(4, 4)
    assert top.dim == 4 and top.coordinates == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        Rank1Cell.build(-1, 1)


def test_point_counts_are_full_affine_spaces(oracle):
    for q in (3, 5):
        for m in range(7):
            for n in range(-m, m + 1, 2):
                assert oracle.point_count(m, n, q) == q ** ((n + m) // 2)


# -- stalk weights -----------------------------------------------------------------------


def test_ic_weight_examples(oracle):
    assert oracle.ic_weight(1, 1) == LaurentPoly.v_power(-1)
    assert oracle.ic_weight(2, 0) == LaurentPoly.v_power(-2)
    assert oracle.ic_weight(0, 0) == ONE
    with pytest.raises(ValueError):
        oracle.ic_weight(2, 1)
    with pytest.raises(ValueError):
        oracle.ic_weight(2, 4)


# -- character sums over cells ----------------------------------------------------------------


def test_evaluation_paths_agree_on_all_cells():
    oracle = Rank1Oracle("PGL2")
    for q in (3, 5):
        for m in range(6):
            for n in range(-m, m + 1, 2):
                cell = Rank1Cell.build(m, n)
                for j in range((n - m) // 2 - 1, n + 1):
                    present = j in cell.coordinates
                    closed = 0 if present else q ** cell.dim
                    assert oracle.closed_cell_charsum(m, n, j, q) == closed
                    # the enumeration ran too, and its memoized value is the closed form
                    assert oracle._closed_sums[(cell.dim, present, q)] == closed


def test_free_psi_coordinate_collapses_to_zero(oracle):
    assert oracle.closed_cell_charsum(4, 2, 0, 3) == 0
    assert oracle.closed_cell_charsum(4, 2, -5, 3) == 3 ** 3


def test_character_sum_is_coordinate_scale_invariant():
    # replacing the residue coordinate a by c*a permutes F_q: sums are unchanged
    q = 5
    for scale in (1, 2, 3, 4):
        total = Cyclotomic(q)
        for a in range(q):
            total = total + Cyclotomic.zeta(q, (scale * a) % q)
        assert total == 0


# -- the identity ------------------------------------------------------------------------------


def test_lhs_single_point_example(oracle):
    value = oracle.eq2_lhs(1, 0, 1, 3)
    assert value == half_power(Fraction(1, 3), True)  # = v^{-1} at q = 3
    assert value == oracle.eq2_rhs(1, 0, 1, 3)


def test_lhs_cancellation_example(oracle):
    assert oracle.eq2_lhs(2, 0, 0, 3) == half_power(0, False)
    assert oracle.eq2_rhs(2, 0, 0, 3) == half_power(0, False)


def test_twisted_top_cell_vanishes_except_at_lowest_stratum(oracle):
    # mu = -nu: the twisted sum survives only at nu = w0(lambda)
    assert oracle.eq2_lhs(2, -2, 2, 3) == half_power(0, False)
    survivor = oracle.eq2_lhs(2, 2, -2, 3)
    assert survivor == half_power(3, False)  # q^{-<nu, rho-check>} = q at nu = -2
    assert survivor == oracle.eq2_rhs(2, 2, -2, 3)


def test_lhs_rejects_inadmissible_characters(oracle):
    with pytest.raises(ValueError, match="inadmissible"):
        oracle.eq2_lhs(2, -3, 2, 3)
    with pytest.raises(ValueError, match="prime"):
        oracle.eq2_lhs(2, 0, 0, 4)


def test_verify_trivial_battery(oracle):
    report = oracle.verify_eq2(0, [3])
    assert report.all_pass
    assert len(report.records) == 1
    assert report.summary() == "PASS 1/1"


def test_verify_battery_m4(oracle):
    report = oracle.verify_eq2(4, [3])
    assert report.all_pass
    assert len(report.records) == 75
    payload = report.to_json()
    assert payload[0].keys() == {"lambda", "mu", "nu", "q", "lhs", "rhs", "pass"}


def test_passing_values_are_nonnegative_integers_times_half_power(oracle):
    report = oracle.verify_eq2(3, [3, 5])
    assert report.all_pass
    for record in report.records:
        eps = 1 if record.lhs.odd else 0
        scaled = record.lhs.coeff * Fraction(record.q) ** ((record.nu + eps) // 2)
        assert scaled.denominator == 1 and scaled >= 0


def test_absent_coordinate_reduces_to_weighted_point_count(oracle):
    # a very large conductor never touches a live coordinate: the integral is a
    # pure point count, and the identity degenerates to the weight multiplicity
    q = 3
    mu = 10
    for m in range(5):
        for n in range(-m, m + 1, 2):
            lhs = oracle.eq2_lhs(m, mu, n, q)
            mult = oracle.rep.weight_multiplicity((m,), (n,))
            eps = 1 if n % 2 else 0
            expected = half_power(mult * Fraction(q) ** ((-n - eps) // 2), bool(eps))
            assert lhs == expected
            assert lhs == oracle.eq2_rhs(m, mu, n, q)


def test_residue_coordinate_is_top_cell_coordinate_for_opposite_conductor():
    for m in range(1, 6):
        for n in range(1, m + 1):
            c = Rank1Cell.build(m, n)
            if c is None:
                continue
            j = -1 - (-n)  # conductor mu = -n
            assert j == n - 1
            assert j == c.coordinates[-1]


def test_mutation_of_base_change_is_detected(corrupted_oracle):
    report = corrupted_oracle.verify_eq2(2, [3])
    assert not report.all_pass
    failing = report.failures()
    assert failing
    assert any(r.lam == 2 for r in failing)


def test_corrupted_enumeration_raises_under_optimize():
    script = (
        "from satake.rank1_oracle import Rank1Oracle\n"
        "from satake.root_datum import InvariantError\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "oracle = Rank1Oracle('PGL2')\n"
        "oracle._closed_sums[(1, True, 3)] = 28\n"  # cell (2, 0), ψ-coordinate live: 0
        "try:\n"
        "    value = oracle.closed_cell_charsum(2, 0, -1, 3)\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n"
        "else:\n"
        "    print('returned:', value)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: evaluation paths disagree"), done.stdout


def test_oracle_requires_adjoint_rank1_datum():
    with pytest.raises(ValueError):
        Rank1Oracle("SL2")
    with pytest.raises(ValueError):
        Rank1Oracle("SL3")


def test_half_power_normalizes_zero():
    assert half_power(0, True) == VMonomial(Fraction(0), 0)
    assert not half_power(0, True).odd
    assert half_power(Fraction(2, 3), True) == VMonomial(Fraction(2, 3), 1)
    assert str(half_power(Fraction(2, 3), True)) == "2/3*v"


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
