"""Numerical laboratory for the KdV approximation of small-amplitude FPU waves."""
