import ast
from functools import lru_cache
from pathlib import Path

import pytest

from sepcycles import counting, oracle


@pytest.fixture
def refuse_census(monkeypatch):
    """Return a function that makes every census pass from n = ``from_n``
    on (default 7) raise ``RuntimeError("census refused ...")``.

    It also swaps the census, recurrence and boundary-value caches for
    empty ones, so a value read off the census cannot hide behind a cache
    hit from an earlier test; the filled caches come back when the test
    ends.
    """

    def refuse(from_n=7):
        real = lru_cache(maxsize=None)(oracle._pair_pass.__wrapped__)

        def guarded(n):
            if n >= from_n:
                raise RuntimeError(f"census refused at n={n}")
            return real(n)

        monkeypatch.setattr(oracle, "_pair_pass", guarded)
        for module, name in (
            (oracle, "_census"), (oracle, "_census_index"), (counting, "_lambda_table"),
            (counting, "_boundary_row"),
        ):
            fresh = lru_cache(maxsize=None)(getattr(module, name).__wrapped__)
            monkeypatch.setattr(module, name, fresh)

    return refuse


@pytest.fixture
def package_imports():
    """Return a function giving the set of sepcycles modules that a
    module's source imports, relative or absolute, read by ``ast``."""

    def imports(module):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        package = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    package.add((node.module or "").split(".")[0])
                elif (node.module or "").startswith("sepcycles"):
                    package.add(node.module.partition(".")[2].split(".")[0])
            elif isinstance(node, ast.Import):
                package.update(alias.name.partition(".")[2].split(".")[0]
                               for alias in node.names if alias.name.startswith("sepcycles"))
        return package

    return imports
