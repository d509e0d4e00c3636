"""Series scaffolding behind the time-local equation.

Two exact structures underpin the construction.  First, the co-rotating
evolution operator expands in powers of the coupling; truncating after the
second term leaves a third-order residual.  Second, the exact reduced map
splits into identity plus a deviation, and alternating partial sums of
deviation compositions reconstruct the initial state from the evolved one
exactly, up to one extra composition whose size collapses rapidly with
depth and coupling.
"""

import math

import numpy as np

from spinboson import (SpinBosonModel, TruncatedBath, dyson_terms,
                       map_inversion_residual, reduced_map_deviation)
from spinboson.oracle import interaction_unitary

model = SpinBosonModel(1.0, [(0.8, 0.05), (1.5, 0.03)], beta=math.inf)
bath = TruncatedBath(model, n_max=3)
t = 2.0
rho0 = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])

print("series terms of the co-rotating propagator at t = 2")
u0, u1, u2 = dyson_terms(bath, t)
u_exact = interaction_unitary(bath, t)
print(f"  |term 1|           = {np.linalg.norm(u1):.3e}   (anti-hermitian: "
      f"{np.max(np.abs(u1 + u1.conj().T)):.1e})")
print(f"  |term 2|           = {np.linalg.norm(u2):.3e}")
print(f"  |1 + U1 + U2 - U|  = {np.linalg.norm(u0 + u1 + u2 - u_exact):.3e}")
for factor in (0.5, 0.25):
    sbath = TruncatedBath(model.scaled(factor), n_max=3)
    s0, s1, s2 = dyson_terms(sbath, t)
    resid = np.linalg.norm(s0 + s1 + s2 - interaction_unitary(sbath, t))
    print(f"  ... couplings x {factor}: residual {resid:.3e}")
print("each halving divides the residual by ~8 (third-order remainder)")
print()

print("deviation of the exact reduced map from the identity")
for factor in (1.0, 0.5, 0.25):
    dev = reduced_map_deviation(TruncatedBath(model.scaled(factor), n_max=3), rho0, t)
    print(f"  couplings x {factor:5.2f}: |deviation| = {np.linalg.norm(dev):.3e}")
print("quadratic in the coupling: the first-order piece is gone for thermal baths")
print()

print("inversion-identity residual vs composition depth (exact identity;")
print("what remains is floating-point noise)")
for depth in (0, 1, 2, 3):
    r = map_inversion_residual(bath, rho0, t, depth)
    print(f"  depth {depth}: {r:.2e}")
