"""Reversion signs of the 8-slot Cl(3,0) layout.

Coefficient layout per 8-slot element: (1, e1, e2, e12, e3, e31, e23, e123);
reversion flips the three bivector slots and e123. The product itself is
``cl3.mv8_product``, on the generic engine. This module stays only because
perfbench/spans.py's ``Tracer.install`` reads it from ``sys.modules``
after ``import garope.cli``; ROADMAP item 1 removes it.
"""

import numpy as np

REVERSE_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, -1.0])
REVERSE_SIGNS.flags.writeable = False
