"""Bit-identity oracles: the straightforward implementations that the
production paths in ``src/`` replaced, kept for equivalence tests."""
