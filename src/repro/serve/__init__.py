"""Compatibility shim: ``repro.serve.wire.canonical_result`` only.

The experiment service that lived here is gone; a run is a pure
function of its key, and ``repro sweep --checkpoint/--resume`` is the
durability story.  The package survives only because
``benchmarks/e2e/child.py`` still imports ``canonical_result`` from
:mod:`repro.serve.wire`.
"""
