import numpy as np
import pytest

import opnorm.estimator


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def svd_norm(M) -> float:
    """Test-only spectral-norm oracle, independent of the package's solver."""
    return float(np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)[0])


def same_ascent(a, b) -> bool:
    """Whether two AscentResults agree bit for bit, maximizer included."""
    return (a.value == b.value and np.array_equal(a.maximizer, b.maximizer)
            and a.iterations == b.iterations and a.converged == b.converged)


@pytest.fixture
def ascent_calls(monkeypatch) -> list:
    """One (args, kwargs, result) entry per call of
    ``estimator.ascent_lower_bound`` made through its module name, as the
    engine makes them."""
    calls = []
    ascent = opnorm.estimator.ascent_lower_bound

    def recorded(*args, **kwargs):
        result = ascent(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(opnorm.estimator, "ascent_lower_bound", recorded)
    return calls
