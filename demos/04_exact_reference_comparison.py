"""Master equation against the exact truncated-Fock reference.

A single resonant vacuum mode keeps the exact dynamics hand-checkable (the
excitation Rabi-oscillates between the upper level and one photon), and the
coupling scan shows how fast the second-order equation converges to it: for
this bath every odd-order term vanishes, so halving the coupling divides
the error by ~16 rather than the generic ~8.
"""

import math

import numpy as np

from spinboson import (SpinBosonModel, TruncatedBath, bath_statistics,
                       exact_reduced_dynamics, exact_scaled_dynamics,
                       interaction_decomposition, propagate, propagate_scaled)

base = SpinBosonModel(1.0, [(1.0, 0.05)], beta=math.inf)
rho0 = np.diag([1.0, 0.0]).astype(complex)
grid = np.linspace(0.0, 2.0, 9)

print("excited start, vacuum resonant mode, g = 0.05")
me = propagate(interaction_decomposition(base), bath_statistics(base), rho0, grid)
exact = exact_reduced_dynamics(TruncatedBath(base, n_max=4), rho0, grid)
print("      t    rho00(master eq)  rho00(exact)  rho00(Rabi formula)")
for t, m, e in zip(grid, me.states, exact.states):
    print(f"  {t:5.2f}   {m[0, 0].real:16.8f}  {e[0, 0].real:12.8f}  "
          f"{np.cos(2 * 0.05 * t) ** 2:19.8f}")
print()

print("coupling scan: Frobenius distance to the exact state at t = 2")
# one pass of each solver serves every coupling scale
scan = (1.0, 0.5, 0.25, 0.125)
m_trajs = propagate_scaled(interaction_decomposition(base), bath_statistics(base),
                           rho0, grid, scan)
e_trajs = exact_scaled_dynamics(TruncatedBath(base, n_max=4), rho0, grid, scan)
errors = {}
for factor, m_traj, e_traj in zip(scan, m_trajs, e_trajs):
    errors[factor] = np.linalg.norm(m_traj.states[-1] - e_traj.states[-1])
    print(f"  g = {0.05 * factor:7.5f}:  error {errors[factor]:.3e}")
print()
factors = (1.0, 0.5, 0.25)
for a, b in zip(factors, factors[1:]):
    print(f"  error({a}) / error({b/1:g} scale) = {errors[a] / errors[b]:.2f}")
print("ratios sit near 16 = 2^4: the equation is exact through third order")
print("in the coupling because the bath's odd moments vanish")
