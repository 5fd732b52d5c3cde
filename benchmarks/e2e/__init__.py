"""The repo's end-to-end benchmark: four served workloads, a traced run, a compare.

Entry point: ``python3 benchmarks/e2e/run.py`` (see ``README.md`` here and
``BENCHMARK.json`` at the repo root).  Nothing in this package is imported by
``src/``; it depends only on the serving surface (the ``repro serve`` /
``repro replicate`` CLIs, ``ServerClient``, ``ReplicatedClient``, the query
constructors) and on a direct ``Engine`` as the correctness oracle.
"""
