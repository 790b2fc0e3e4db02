"""Acceptance battery: one test per criterion, exact tolerances, timed budgets.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.
"""

import random
import time
from fractions import Fraction

from satake.grassmannian import Grassmannian
from satake.hecke import A_BASIS, C_BASIS, BasisElement, HeckeAlgebra
from satake.laurent import LaurentPoly, ONE, ZERO
from satake.rank1_oracle import Rank1Oracle
from satake.rep_ring import RepRing, torus_point
from satake.root_datum import build_root_datum
from satake.whittaker import WhittakerModule


def _report(number, name, elapsed, budget):
    print("ACCEPTANCE %d (%s): PASS in %.2fs (budget %ds)" % (number, name, elapsed, budget))


def _rand_gamma(rng, datum):
    return torus_point(
        [
            Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))
            for _ in range(datum.lattice_rank)
        ],
        datum,
    )


def test_criterion_1_casselman_shalika_consistency():
    start = time.monotonic()
    for name in ["PGL2", "SL3"]:
        algebra = HeckeAlgebra(name)
        module = WhittakerModule(algebra)
        box = algebra.datum.dominant_box(8)
        phi0 = module.phi_zero()
        for lam in box:
            element = algebra.monomial(A_BASIS, lam)
            assert module.f_transform(element) == module.phi(lam)
            assert module.act(phi0, element) == module.phi(lam)
        for lam in box:
            h1 = algebra.monomial(A_BASIS, lam)
            for mu in box:
                h2 = algebra.monomial(A_BASIS, mu)
                product = algebra.mul(h1, h2)
                assert module.f_transform(product) == module.act(module.phi(lam), h2)
                assert module.act(module.act(module.phi(mu), h1), h2) == module.act(
                    module.phi(mu), product
                )
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(1, "Casselman-Shalika consistency", elapsed, 10)


def test_criterion_2_eigenfunction_identity():
    start = time.monotonic()
    rng = random.Random(0xE16E4)
    plan = [("PGL2", 8, [(1,), (2,)]), ("SL2", 4, [(1,)]), ("SL3", 6, [(1, 0)]), ("Sp4", 2, [(1, 0)])]
    total_gammas = 0
    for name, count, actions in plan:
        module = WhittakerModule(HeckeAlgebra(name))
        for _ in range(count):
            gamma = _rand_gamma(rng, module.datum)
            total_gammas += 1
            for lam_act in actions:
                residual = module.eigen_residual(gamma, lam_act, 10)
                assert residual, "window must be nonempty"
                assert all(value == 0 for value in residual.values())
    assert total_gammas >= 20
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(2, "eigenfunction identity, %d gammas" % total_gammas, elapsed, 30)


def test_criterion_3_finite_field_oracle(corrupted_oracle):
    start = time.monotonic()
    oracle = Rank1Oracle("PGL2")
    report = oracle.verify_eq2(4, [3, 5])
    assert report.all_pass, report.failures()
    mus = [record.mu for record in report.records]
    assert min(mus) == -4 and max(mus) == 4
    corrupted = corrupted_oracle.verify_eq2(4, [3, 5])
    assert not corrupted.all_pass
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(3, "character-sum oracle, %d triples" % len(report.records), elapsed, 60)


def test_criterion_4_large_mu_weight_multiplicities():
    start = time.monotonic()
    cases = 0
    for name in ["PGL2", "SL2", "SL3", "Sp4"]:
        rep = RepRing(name)
        geometry = Grassmannian(rep)
        datum = rep.datum
        for lam in datum.dominant_box(6):
            threshold = datum.pairing_2rho(lam)
            if datum.lattice_rank == 1:
                mu = datum.dominant_representative((threshold,)).coweight
            else:
                mu = (threshold,) * datum.lattice_rank
            for nu in rep.weight_table(lam):
                assert geometry.mv_weight_multiplicity_check(lam, nu, mu)
                cases += 1
            # a point outside the hull: both sides vanish
            outside = tuple(2 * x + 2 for x in lam)
            if rep.weight_table(lam).get(outside, 0) == 0:
                assert geometry.mv_weight_multiplicity_check(lam, outside, mu)
                cases += 1
    elapsed = time.monotonic() - start
    _report(4, "large-mu weight multiplicities, %d cases" % cases, elapsed, 60)


def test_criterion_5_satake_triangularity_and_shape():
    start = time.monotonic()
    for name in ["PGL2", "SL2", "SL3", "Sp4"]:
        algebra = HeckeAlgebra(name)
        datum = algebra.datum
        rep = algebra.rep
        for lam in datum.dominant_box(8):
            row = algebra.satake_row(lam)
            prefactor = -datum.pairing_2rho(lam)
            assert row[lam] == LaurentPoly({prefactor: 1})
            mass = 0
            for mu, coeff in row.items():
                assert datum.is_dominant(mu) and datum.dominance_leq(mu, lam)
                p = coeff.shift(-prefactor)
                # a polynomial in q with nonnegative coefficients
                assert all(e >= 0 and e % 2 == 0 and c > 0 for e, c in p.items())
                at_one = p.eval_q(1)
                assert at_one == rep.weight_table(lam).get(mu, 0)
                mass += at_one * len(datum.weyl_orbit(mu))
            assert mass == rep.weyl_dim(lam)
    elapsed = time.monotonic() - start
    _report(5, "Satake triangularity and shape", elapsed, 60)


def test_criterion_6_dimension_and_degree_bookkeeping():
    start = time.monotonic()
    for name in ["PGL2", "SL3"]:
        rep = RepRing(name)
        geometry = Grassmannian(rep)
        datum = rep.datum
        box = datum.dominant_box(4)
        for lam in box:
            for mu in box:
                for nu in rep.weight_table(lam):
                    target = tuple(a + b for a, b in zip(mu, nu))
                    if not datum.is_dominant(target):
                        continue
                    prediction = geometry.predicted_cohomology(lam, mu, nu)
                    if not prediction.vanishes:
                        expected = datum.pairing_2rho(nu)
                        assert prediction.degree == expected
                        assert prediction.frobenius_weight == expected
    oracle = Rank1Oracle("PGL2")
    geometry1 = Grassmannian(oracle.rep)
    for m in range(7):
        for n in range(-m, m + 1, 2):
            bound = geometry1.mv_dim_bound((m,), (n,))
            assert bound.bound == (n + m) // 2
            for q in (3, 5):  # ψ(a_n) never has a live coordinate: the sum counts the points
                assert oracle.closed_cell_charsum(m, n, n, q) == q ** ((n + m) // 2)
    elapsed = time.monotonic() - start
    _report(6, "dimension/degree bookkeeping", elapsed, 60)


def test_criterion_7_property_suites():
    start = time.monotonic()
    rng = random.Random(0x5EED)

    # ring axioms on sparse Laurent polynomials
    def rand_poly():
        return LaurentPoly(
            {rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))}
        )

    for _ in range(500):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a

    # module axioms over the dual SL2 datum
    algebra = HeckeAlgebra("PGL2")
    module = WhittakerModule(algebra)
    box1 = algebra.datum.dominant_box(6)
    for _ in range(500):
        w = module.phi(rng.choice(box1), LaurentPoly.const(rng.randint(1, 5)))
        h1 = algebra.monomial(A_BASIS, rng.choice(box1), LaurentPoly.const(rng.randint(-3, 3) or 1))
        h2 = algebra.monomial(A_BASIS, rng.choice(box1))
        assert module.act(module.act(w, h1), h2) == module.act(w, algebra.mul(h1, h2))

    # Weyl invariance of weight tables
    reps = {name: RepRing(name) for name in ["PGL2", "SL2", "SL3", "Sp4"]}
    boxes = {name: rep.datum.dominant_box(6) for name, rep in reps.items()}
    for _ in range(500):
        name = rng.choice(list(reps))
        rep = reps[name]
        lam = rng.choice(boxes[name])
        table = rep.weight_table(lam)
        nu = rng.choice(list(table))
        image = nu
        for _ in range(rng.randint(1, 4)):
            image = rep.datum.reflect(rng.randrange(rep.datum.rank), image)
        assert table[image] == table[nu]

    # dominance partial-order axioms
    data = [build_root_datum(name) for name in ["PGL2", "SL2", "SL3", "Sp4"]]
    for _ in range(500):
        datum = rng.choice(data)
        pick = lambda: tuple(rng.randint(-5, 5) for _ in range(datum.lattice_rank))
        a, b, c = pick(), pick(), pick()
        assert datum.dominance_leq(a, a)
        if datum.dominance_leq(a, b) and datum.dominance_leq(b, a):
            assert a == b
        if datum.dominance_leq(a, b) and datum.dominance_leq(b, c):
            assert datum.dominance_leq(a, c)

    # round-trip base change
    algebras = {"PGL2": HeckeAlgebra("PGL2"), "SL3": HeckeAlgebra("SL3")}
    for _ in range(500):
        algebra = algebras[rng.choice(["PGL2", "SL3"])]
        box = algebra.datum.dominant_box(6)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            coeff = LaurentPoly(
                {rng.randint(-3, 3): rng.randint(-5, 5) for _ in range(rng.randint(1, 2))}
            )
            terms[rng.choice(box)] = coeff
        h = algebra.element(A_BASIS, terms)
        assert algebra.c_to_satake(algebra.satake_to_c(h)) == h
        c = BasisElement(C_BASIS, dict(h.terms))
        assert algebra.satake_to_c(algebra.c_to_satake(c)) == c

    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(7, "randomized property suites (5 x 500 cases)", elapsed, 60)
