"""The one benchmark of this repository (see ``bench/README.md``).

Everything here drives the unmodified program under ``src/`` through its
public API and measures it from outside; nothing under ``src/`` imports
this package.
"""
