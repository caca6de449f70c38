"""Empty: the 8-slot Cl(3,0) layout, its product, reversion and grades
live in ``cl3``, derived from ``ga.Algebra(3)``. ``cl3`` still imports
this module because perfbench/spans.py's ``Tracer.install`` reads it from
``sys.modules`` after ``import garope.cli``; ROADMAP item 1 removes it.
"""
