"""The row-evaluated check suites against per-sample reference loops."""

import numpy as np
import pytest

from garope import checks
from garope.ga import Algebra, Multivector
from garope.quaternion import even_cl3_coeffs, hamilton_product


def embed(q) -> Multivector:
    return Multivector(3, even_cl3_coeffs(q))


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
    """quat-cl3-isomorphism on Multivector objects, one pair at a time."""
    basis = np.eye(4)
    for qi in range(4):
        for qj in range(4):
            ham = product(basis[qi], basis[qj])
            ga = (embed(basis[qi]) * embed(basis[qj])).coeffs
            if not np.array_equal(ga, embed(ham).coeffs):
                return f"basis pair ({qi},{qj}) mismatched"
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(1000):
        p, q = rng.standard_normal(4), rng.standard_normal(4)
        ham = embed(product(p, q)).coeffs
        ga = (embed(p) * embed(q)).coeffs
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
