"""Rotary positional encodings built on quaternion and Clifford rotors.

Subpackages split along the pipeline: `ga` is the generic Cl(n,0) engine,
`quaternion` the Hamilton-algebra specialization, `cl3` the 8-slot
Cl(3,0) product and rotor sandwich on that engine, `encodings` the
positional encoding methods, `attention` the score-level experiments,
`bench` the kernel micro-benchmarks, and `cli` the command-line front end.
"""

__version__ = "0.1.0"
