"""Benchmark harness: measurements, figure drivers, reporting, scales.

Import the submodule you need (``repro.bench.figures`` for the registry,
``repro.bench.reporting`` for result tables and the ``BENCH_*.json``
envelope): the package itself imports nothing, so writing an envelope or
spawning ``repro.bench.memchild`` loads no measurement code.
"""
