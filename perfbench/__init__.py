"""Seeded, self-checking benchmark of the diskinterp pipelines; see README.md."""
