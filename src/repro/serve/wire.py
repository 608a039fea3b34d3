"""Re-export of :func:`repro.harness.checkpoint.canonical_result`.

``benchmarks/e2e/child.py`` imports it from here.  The next change to
the benchmark switches that import to :mod:`repro.harness.checkpoint`
and deletes the ``repro.serve`` package.
"""

from repro.harness.checkpoint import canonical_result

__all__ = ["canonical_result"]
