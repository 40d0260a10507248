"""The one oracle-comparison harness behind every parity suite.

Both fast paths carry the same contract — the scalar oracle and the fast
kernel must produce *bit-identical* results — and both test suites used to
hand-roll the comparison (a ``_run_pair`` helper on the sim side, inline
loops on the characterization side).  :func:`assert_parity` replaces both:
run the oracle, run the candidate, and deep-compare the results exactly,
reporting the first mismatching paths instead of an opaque ``!=``.

Comparison is structural and exact: dataclasses and named tuples are
compared field by field, mappings key by key, sequences element by
element, floats with ``==`` plus a ``repr`` check (so a value that would
serialize differently — the actual byte-identity contract of persisted
rows and rendered figures — cannot sneak through as "equal").
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Sequence

#: Mismatches reported before the diff is truncated.
MAX_REPORTED = 8


def parity_diff(expected: Any, actual: Any, path: str = "result",
                ) -> list[str]:
    """Paths at which ``actual`` differs from ``expected`` (empty = equal)."""
    out: list[str] = []
    _diff(expected, actual, path, out)
    return out


def _describe(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _diff(expected: Any, actual: Any, path: str, out: list[str]) -> None:
    if len(out) >= MAX_REPORTED:
        return
    if type(expected) is not type(actual):
        out.append(f"{path}: type {type(expected).__name__} != "
                   f"{type(actual).__name__}")
        return
    if dataclasses.is_dataclass(expected) and not isinstance(expected, type):
        for f in dataclasses.fields(expected):
            _diff(getattr(expected, f.name), getattr(actual, f.name),
                  f"{path}.{f.name}", out)
        return
    if isinstance(expected, tuple) and hasattr(expected, "_fields"):
        for name in expected._fields:  # a named tuple (RowMeasurement)
            _diff(getattr(expected, name), getattr(actual, name),
                  f"{path}.{name}", out)
        return
    if isinstance(expected, dict):
        for key in expected.keys() | actual.keys():
            if key not in expected or key not in actual:
                out.append(f"{path}[{key!r}]: present on one side only")
                continue
            _diff(expected[key], actual[key], f"{path}[{key!r}]", out)
        return
    if isinstance(expected, (list, tuple)):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(expected)} != {len(actual)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff(e, a, f"{path}[{i}]", out)
        return
    if isinstance(expected, float):
        # == catches value drift; repr catches representation drift
        # (e.g. -0.0 vs 0.0), which would break byte-identical persistence.
        if expected == actual and repr(expected) == repr(actual):
            return
        out.append(f"{path}: {_describe(expected)} != {_describe(actual)}")
        return
    if expected != actual:
        out.append(f"{path}: {_describe(expected)} != {_describe(actual)}")


def assert_parity(oracle: Callable[[], Any] | Any,
                  candidate: Callable[[], Any] | Any, *,
                  label: str = "fast path") -> tuple[Any, Any]:
    """Assert a candidate reproduces its oracle bit-exactly.

    ``oracle`` and ``candidate`` may be zero-argument callables (run here,
    oracle first — matching the order the hand-rolled helpers used) or
    already-computed results.  Returns ``(expected, actual)`` so callers
    can keep asserting domain-specific properties on either.
    """
    expected = oracle() if callable(oracle) else oracle
    actual = candidate() if callable(candidate) else candidate
    mismatches = parity_diff(expected, actual)
    if mismatches:
        shown = "\n  ".join(mismatches)
        raise AssertionError(
            f"{label} diverged from the oracle at "
            f"{len(mismatches)}+ path(s):\n  {shown}")
    return expected, actual


def assert_all_parity(oracle_results: Sequence[Any],
                      candidate_results: Sequence[Any], *,
                      label: str = "fast path") -> None:
    """Batch form: element ``i`` of the candidate must match element ``i``
    of the oracle (lengths included)."""
    assert_parity(list(oracle_results), list(candidate_results), label=label)
