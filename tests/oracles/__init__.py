"""Reference implementations that production code is checked against.

Each oracle is the slow, obviously-correct version of an optimized
production path; parity tests (and benchmarks) import them from here so
that production classes carry no reference-only code paths.
"""
