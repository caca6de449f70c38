"""The row-evaluated check suites against per-sample reference loops."""

import numpy as np
import pytest

from garope import checks
from garope.ga import Algebra
from garope.quaternion import even_cl3_coeffs, hamilton_product


def reference_product_laws(seed: int) -> str:
    """ga-product-laws drawn and evaluated one triple at a time."""
    rng = np.random.default_rng([seed, 0])
    alg = Algebra(3)
    worst = 0.0
    for _ in range(50):
        a, b, c = (rng.standard_normal(8) for _ in range(3))
        left = alg.gp(alg.gp(a, b), c)
        right = alg.gp(a, alg.gp(b, c))
        worst = max(worst, float(np.max(np.abs(left - right))))
        s, t = rng.standard_normal(2)
        lin = alg.gp(s * a + t * b, c) - (s * alg.gp(a, c) + t * alg.gp(b, c))
        worst = max(worst, float(np.max(np.abs(lin))))
    return f"assoc/linear dev {worst:.3e} on 50 triples; generator table exact"


def reference_quat_isomorphism(seed: int, product=hamilton_product) -> str:
    """quat-cl3-isomorphism on single embedded quaternions, one pair at a time."""
    alg = Algebra(3)
    embed = even_cl3_coeffs
    basis = np.eye(4)
    for qi in range(4):
        for qj in range(4):
            ham = product(basis[qi], basis[qj])
            ga = alg.gp(embed(basis[qi]), embed(basis[qj]))
            if not np.array_equal(ga, embed(ham)):
                return f"basis pair ({qi},{qj}) mismatched"
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(1000):
        p, q = rng.standard_normal(4), rng.standard_normal(4)
        ham = embed(product(p, q))
        ga = alg.gp(embed(p), embed(q))
        worst = max(worst, float(np.max(np.abs(ham - ga))))
    return f"16 basis pairs exact; 1000 random pairs dev {worst:.3e}"


@pytest.mark.parametrize("seed", range(10))
def test_product_laws_match_per_sample_reference(seed):
    assert checks._suite_ga_product_laws(seed) == reference_product_laws(seed)


@pytest.mark.parametrize("seed", range(10))
def test_quat_isomorphism_matches_per_sample_reference(seed):
    assert checks._suite_quat_isomorphism(seed) == reference_quat_isomorphism(seed)


def test_quat_isomorphism_names_first_mismatched_basis_pair(monkeypatch):
    # q p in place of p q: the pairs with 1 or a repeated unit still match,
    # so the first mismatch in row-major order is i j against j i
    def swapped(p, q):
        return hamilton_product(q, p)

    want = reference_quat_isomorphism(0, product=swapped)
    assert want == "basis pair (1,2) mismatched"
    monkeypatch.setattr(checks, "hamilton_product", swapped)
    with pytest.raises(checks.CheckFailure) as failure:
        checks._suite_quat_isomorphism(0)
    assert str(failure.value) == want


@pytest.mark.parametrize(
    "seed, detail",
    [
        (0, "grade norms 8.882e-16, inverse 2.220e-15 on 100 rotors"),
        (1, "grade norms 1.332e-15, inverse 1.776e-15 on 100 rotors"),
        (7, "grade norms 8.882e-16, inverse 1.332e-15 on 100 rotors"),
        (12345, "grade norms 1.332e-15, inverse 3.109e-15 on 100 rotors"),
    ],
)
def test_rotor_sandwich_details_are_pinned(seed, detail):
    # printed by `garope check`, so the figures must not move
    assert checks._suite_ga_rotor_sandwich(seed) == detail
