from functools import lru_cache

import pytest

from sepcycles import counting, oracle


@pytest.fixture
def refuse_census(monkeypatch):
    """Return a function that makes every census pass from n = 7 on raise
    ``RuntimeError("census refused ...")``.

    It also swaps the census and recurrence caches for empty ones, so a
    value read off the census cannot hide behind a cache hit from an
    earlier test; the filled caches come back when the test ends.
    """

    def refuse():
        real = lru_cache(maxsize=None)(oracle._pair_pass.__wrapped__)

        def guarded(n):
            if n >= 7:
                raise RuntimeError(f"census refused at n={n}")
            return real(n)

        monkeypatch.setattr(oracle, "_pair_pass", guarded)
        for module, name in (
            (oracle, "_census"), (oracle, "_census_index"), (counting, "_lambda_table"),
        ):
            fresh = lru_cache(maxsize=None)(getattr(module, name).__wrapped__)
            monkeypatch.setattr(module, name, fresh)

    return refuse
