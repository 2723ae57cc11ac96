"""Sensor selection with long-term participation incentives.

Per-slot coverage welfare arithmetic, a shared regulated-welfare solver,
offline benchmarks, two asymptotically optimal online selection policies,
a truthful regulated reverse VCG auction, literature baselines, a
stochastic scenario generator, and a discrete-time simulation engine.
"""

__version__ = "0.1.0"
