"""Reference implementations that exist only to be compared against.

Each module rebuilds, on top of the shipped entry points, the plain
one-at-a-time path a batched or stacked implementation in ``src/`` must
match bit for bit; :mod:`reference.counting` overhears field arithmetic, the
oracle for every charge ``src/`` computes.  Nothing in ``src/`` imports
them; the property and integration suites do (``tests/`` is on
``sys.path`` through its ``conftest.py``, so they import as
``reference.<module>``).
"""
