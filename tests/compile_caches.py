"""A cold start for the tests that need one.

The library keeps per-process caches of what depends only on a
structure, its order or a modulus: compiled face tables, presentations,
validity verdicts, written systems, cocycle plans and solvers.  Each
has a `cache_clear()`: the `functools.lru_cache`s, and the written
systems' cache (`reduced._kept`).  A test that asserts that a table is compiled, a quotient
presented or a system written must start with none of them cached.
"""

import importlib
import pkgutil

import lcscohom


def clear_compile_caches():
    """Clear every cache of every lcscohom module."""
    for info in pkgutil.iter_modules(lcscohom.__path__):
        if info.name == "__main__":  # runs the command line on import
            continue
        module = importlib.import_module(f"lcscohom.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
