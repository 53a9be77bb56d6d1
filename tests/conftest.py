"""Session fixtures: the bundled rule specifications, loaded once and shared."""

import time

import pytest

from desimone import counterexample_search, load_spec


@pytest.fixture(scope="session")
def de_simone_par():
    return load_spec("de_simone_par")


@pytest.fixture(scope="session")
def prob_par():
    return load_spec("prob_par")


@pytest.fixture(scope="session")
def leaky():
    return load_spec("leaky")


@pytest.fixture(scope="session")
def copy_nonaffine():
    return load_spec("copy_nonaffine")


@pytest.fixture(scope="session")
def loop():
    return load_spec("loop")


@pytest.fixture(scope="session")
def pair_affine():
    return load_spec("pair_affine")


@pytest.fixture(scope="session")
def pair_nonaffine():
    return load_spec("pair_nonaffine")


@pytest.fixture
def quotient_calls(monkeypatch):
    """The ``(terms, depth)`` of each ``bisim_partition`` call from inside
    ``desimone.analysis`` while the test runs."""
    import desimone.analysis as analysis_module

    calls = []
    partition = analysis_module.bisim_partition

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return partition(*args, **kwargs)

    monkeypatch.setattr(analysis_module, "bisim_partition", counting)
    return calls


@pytest.fixture(scope="session")
def copy_violation(copy_nonaffine):
    """The congruence counterexample on the copying spec, searched once.

    The search is the most expensive computation in the suite, so it runs a
    single time here; the wall-clock duration rides along so the budget can
    still be asserted where the result is consumed.
    """
    start = time.perf_counter()
    violation = counterexample_search(copy_nonaffine, size_bound=7, depth=4)
    elapsed = time.perf_counter() - start
    assert violation is not None
    return violation, elapsed
