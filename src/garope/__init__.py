"""Rotary positional encodings built on quaternion and Clifford rotors.

Modules split along the pipeline: `ga` is the generic Cl(n,0) engine,
`quaternion` the Hamilton algebra, `cl3` the 8-slot Cl(3,0) product and
sandwich, `encodings` the encoding methods, `attention` the score-level
experiments, `checks` the verifications, `formats` the tensor-file and
run-config formats, `bench` kernel micro-benchmarks, `cli` the commands.
"""

__version__ = "0.1.0"
