"""Layered MD-step benchmark for the functional DD engine (see run.py)."""
