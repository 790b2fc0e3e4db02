import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from satake.laurent import LaurentPoly, ONE, V, VMonomial
from satake.cli import main
from satake import rank1_oracle
from satake.rank1_oracle import Cyclotomic, Rank1Oracle, _cell_coordinates, half_power, is_prime
from satake.root_datum import InvariantError, TooLarge


@pytest.fixture(scope="module")
def oracle():
    return Rank1Oracle("PGL2")


# -- cyclotomic arithmetic -------------------------------------------------------


def test_full_character_sum_vanishes():
    for p in (3, 5, 7):
        total = Cyclotomic(p)
        for a in range(p):
            total = total + Cyclotomic.zeta(p, a)
        assert total.to_integer() == 0


def test_arithmetic_results_skip_the_primality_check(monkeypatch):
    import satake.rank1_oracle as rank1_oracle

    z = Cyclotomic.zeta(5, 1)

    def refuse(n):
        raise AssertionError("is_prime ran on an arithmetic result")

    monkeypatch.setattr(rank1_oracle, "is_prime", refuse)
    assert Cyclotomic.zeta(5, 5).vec == Cyclotomic.zeta(5, 0).vec == (1, 0, 0, 0)
    assert Cyclotomic.zeta(5, 2).vec == (0, 0, 1, 0)
    assert Cyclotomic.zeta(5, 4).vec == (-1, -1, -1, -1)
    assert (z + z + Cyclotomic.zeta(5, 0)).vec == (1, 2, 0, 0)
    with pytest.raises(ValueError, match="mixed"):
        z + Cyclotomic._result(3, (0, 1))


def test_to_integer_guards():
    z = Cyclotomic.zeta(3, 1)
    with pytest.raises(ValueError):
        z.to_integer()
    assert (z + Cyclotomic.zeta(3, 2)).to_integer() == -1  # ζ + ζ² = −1
    assert Cyclotomic._result(3, (-4, 0)).to_integer() == -4
    assert Cyclotomic(3).vec == (0, 0) and Cyclotomic(3).to_integer() == 0
    with pytest.raises(ValueError):
        Cyclotomic(4)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3, 0) + Cyclotomic.zeta(5, 0)


# -- cells ----------------------------------------------------------------------------


def test_cell_examples():
    assert _cell_coordinates(2, 0) == (-1,)
    assert _cell_coordinates(1, 0) is None  # parity
    assert _cell_coordinates(3, 5) is None  # outside the closure
    assert _cell_coordinates(2, -2) == ()  # a point
    assert _cell_coordinates(4, 4) == (0, 1, 2, 3)
    assert _cell_coordinates(-1, 1) is None  # no orbit has a negative label


# -- stalk weights -----------------------------------------------------------------------


def test_ic_weight_examples(oracle):
    assert oracle.ic_weight(1, 1) == LaurentPoly({-1: 1})
    assert oracle.ic_weight(2, 0) == LaurentPoly({-2: 1})
    assert oracle.ic_weight(0, 0) == ONE
    with pytest.raises(ValueError):
        oracle.ic_weight(2, 1)
    with pytest.raises(ValueError):
        oracle.ic_weight(2, 4)


def test_a_battery_reads_each_satake_row_once(monkeypatch):
    # the stalk weights of A_m come from one read of its row per oracle, however many strata
    # and triples ask; a label that is not an int still meets the Hecke algebra's door
    from satake.hecke import HeckeAlgebra

    reads, satake_row = [], HeckeAlgebra.satake_row
    monkeypatch.setattr(HeckeAlgebra, "satake_row", lambda self, lam: reads.append(lam) or satake_row(self, lam))
    fresh = Rank1Oracle("PGL2")
    report = fresh.verify_eq2(5, [3, 5])
    assert report.all_pass
    assert sorted(reads) == [(m,) for m in range(6)]
    assert fresh.ic_weight(2, 0) == LaurentPoly({-2: 1}) and len(reads) == 6
    for label in (True, 2.0):
        with pytest.raises(ValueError, match="not an integer"):
            fresh.ic_weight(label, 0)
    with pytest.raises(ValueError, match="does not meet the closure"):
        fresh.ic_weight(2, 1)


# -- character sums over cells ----------------------------------------------------------------


def test_evaluation_paths_agree_on_all_cells():
    oracle = Rank1Oracle("PGL2")
    for q in (3, 5):
        for m in range(6):
            for n in range(-m, m + 1, 2):
                coords = _cell_coordinates(m, n)
                assert len(coords) == (n + m) // 2
                for j in range((n - m) // 2 - 1, n + 1):
                    present = j in coords
                    closed = 0 if present else q ** len(coords)
                    assert oracle.closed_cell_charsum(m, n, j, q) == closed
                    # the enumeration ran too, and its memoized value is the closed form
                    assert oracle._closed_sums[(len(coords), present, q)] == closed


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
        assert total.to_integer() == 0


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


def test_labels_must_be_integers(oracle):
    # a label truncated to 1 would yield a passing record that names λ = 1.5
    for triple in [(1.5, 0, 1, 3), (1, 0.0, 1, 3), (1, 0, "1", 3)]:
        with pytest.raises(ValueError, match="not an integer"):
            oracle.check_triple(*triple)
        with pytest.raises(ValueError, match="not an integer"):
            oracle.eq2_rhs(*triple)


def test_lhs_rejects_inadmissible_characters(oracle):
    with pytest.raises(ValueError, match="inadmissible"):
        oracle.eq2_lhs(2, -3, 2, 3)
    with pytest.raises(ValueError, match="prime"):
        oracle.eq2_lhs(2, 0, 0, 4)


@pytest.mark.parametrize("method, args, message", [
    ("closed_cell_charsum", (3, 0, -1, 3), r"empty cell \(m = 3, n = 0\)"),
    ("closed_cell_charsum", (1, 3, -1, 3), r"empty cell \(m = 1, n = 3\)"),
    ("eq2_lhs", (-2, 0, 0, 3), "orbit label must be nonnegative"),
    ("eq2_rhs", (2, -3, 2, 3), "inadmissible character"),
], ids=["cell-off-parity", "cell-outside", "negative-label", "rhs-inadmissible"])
def test_the_oracle_refuses_an_empty_cell_a_negative_label_and_an_inadmissible_character(
        oracle, method, args, message):
    with pytest.raises(ValueError, match=message):
        getattr(oracle, method)(*args)


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
            mult = oracle.rep.weight_table((m,)).get((n,), 0)
            eps = 1 if n % 2 else 0
            expected = half_power(mult * Fraction(q) ** ((-n - eps) // 2), bool(eps))
            assert lhs == expected
            assert lhs == oracle.eq2_rhs(m, mu, n, q)


def test_residue_coordinate_is_top_cell_coordinate_for_opposite_conductor():
    for m in range(1, 6):
        for n in range(1, m + 1):
            coords = _cell_coordinates(m, n)
            if coords is None:
                continue
            j = -1 - (-n)  # conductor mu = -n
            assert j == n - 1
            assert j == coords[-1]


def test_verify_eq2_json_is_pinned(capsys):
    # PGL2, m_max 6 over F_3, F_5 and F_7: 3 × 196 triples, every lhs and rhs as text
    assert main(["verify-eq2", "6", "3", "5", "7", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "94f7cc8aedb04f1724266336951a38f9f7fb5a6c7c1fbc6e91d244d411d37f1f"


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


def test_disagreeing_evaluation_routes_raise():
    # the enumerated sum of cell (2, 0) with its ψ-coordinate live is 0; a tampered memo says 28
    oracle = Rank1Oracle("PGL2")
    oracle._closed_sums[(1, True, 3)] = 28
    with pytest.raises(InvariantError, match=r"evaluation paths disagree on cell \(2,0\): 28 vs 0"):
        oracle.closed_cell_charsum(2, 0, -1, 3)
    with pytest.raises(InvariantError, match="evaluation paths disagree"):
        oracle.verify_eq2(2, [3])


def test_an_orbit_integral_of_mixed_v_parities_raises():
    # every stalk weight of A_2 is an even power of v; adding v^{−1} at the orbit 0 mixes parities
    oracle = Rank1Oracle("PGL2")
    row = oracle.hecke.satake_row((2,))
    oracle._rows[2] = {**row, (0,): row[(0,)] + V.shift(-2)}
    assert oracle.eq2_lhs(2, 0, 2, 3) == half_power(Fraction(1, 3), False)  # ν = 2 reads orbit 2 only
    with pytest.raises(InvariantError, match="mixes v-parities"):
        oracle.eq2_lhs(2, 1, 0, 3)


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


def _unreachable(*args, **kwargs):
    raise AssertionError("the work started before the refusal")


@pytest.mark.parametrize("m_max, primes, message", [
    (20, [7], "battery too large: its largest cell has 7^20 points"),
    (8, [3, 7], "7^8 points"),
    (0, [1000003], "1000003^0 points, each with a ψ-value of 1000002 integers"),
], ids=["m20-q7", "m8-q7", "huge-q"])
def test_an_oversized_battery_is_refused_before_any_triple(monkeypatch, m_max, primes, message):
    monkeypatch.setattr(Rank1Oracle, "check_triple", _unreachable)
    monkeypatch.setattr(rank1_oracle, "is_prime", _unreachable)
    start = time.monotonic()
    with pytest.raises(TooLarge) as refused:
        Rank1Oracle().verify_eq2(m_max, primes)
    assert time.monotonic() - start < 1
    assert message in str(refused.value)


@pytest.mark.parametrize("triple, message", [
    ((40, 0, 40, 3), "cell (40, 40) has 3^40 points"),
    ((40, 0, 0, 3), "cell (40, 0) has 3^20 points"),
], ids=["one-cell", "twenty-one-cells"])
def test_an_oversized_cell_is_refused_before_any_point(monkeypatch, triple, message):
    # (40, 0, 0, 3) meets cells of 3^0 … 3^20 points: the largest comes first, so no cell
    # within the limit (up to 3^12 points) is enumerated before the refusal
    monkeypatch.setattr(rank1_oracle, "iter_product", _unreachable)
    start = time.monotonic()
    with pytest.raises(TooLarge) as refused:
        Rank1Oracle().check_triple(*triple)
    assert time.monotonic() - start < 1
    assert message in str(refused.value)


@pytest.mark.parametrize("m_max, primes, message", [
    (-1, [3], "empty battery"), (2, [], "empty battery"),
    (2, [4], "distinct primes"), (2, [3, 3], "distinct primes"), (2, [5, 3, 5], "distinct primes"),
], ids=["negative-m", "no-q", "composite-q", "repeated-q", "repeated-q-apart"])
def test_an_empty_or_ill_formed_battery_is_refused(monkeypatch, m_max, primes, message):
    monkeypatch.setattr(Rank1Oracle, "check_triple", _unreachable)
    with pytest.raises(ValueError, match=message) as refused:
        Rank1Oracle().verify_eq2(m_max, primes)
    assert not isinstance(refused.value, TooLarge)
