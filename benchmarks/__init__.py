"""Benchmarks.  The one instrument is :mod:`benchmarks.e2e`
(``python -m benchmarks.e2e``; contract in ``BENCHMARK.json``); this file
makes the directory a package so that invocation works from the repo root.
"""
