import numpy as np
import pytest

from helpers import make_rng, partial_trace, random_complex, random_density_matrix


# -- partial trace (the full-space reference in tests/helpers.py) -------------

def partial_trace_sum_oracle(rho, d_keep, d_env):
    """Explicit index summation over the environment, keep the first factor."""
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for s in range(d_keep):
        for sp in range(d_keep):
            for e in range(d_env):
                out[s, sp] += rho[s * d_env + e, sp * d_env + e]
    return out


def test_partial_trace_product_state():
    rng = make_rng(21)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 3)
    got = partial_trace(np.kron(rho_a, rho_b), (2, 3))
    assert np.allclose(got, rho_a, atol=1e-14)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    got = partial_trace(rho, (2, 2))
    assert np.allclose(got, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_matches_sum_oracle():
    rng = make_rng(22)
    rho = random_density_matrix(rng, 6)
    got = partial_trace(rho, (2, 3))
    assert np.allclose(got, partial_trace_sum_oracle(rho, 2, 3), atol=1e-14)


def test_partial_trace_preserves_trace_and_is_linear():
    rng = make_rng(23)
    dims = (2, 4)
    r1 = random_complex(rng, (8, 8))
    r2 = random_complex(rng, (8, 8))
    a, b = 0.7 - 0.2j, 1.1 + 0.4j
    lhs = partial_trace(a * r1 + b * r2, dims)
    rhs = a * partial_trace(r1, dims) + b * partial_trace(r2, dims)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    assert abs(np.trace(partial_trace(r1, dims)) - np.trace(r1)) <= 1e-12


def test_partial_trace_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 3))
