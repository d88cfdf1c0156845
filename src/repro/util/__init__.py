"""Shared low-level utilities: varints and the LFU cache."""
