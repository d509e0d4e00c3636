"""Temperature limits: vacuum relaxation and hot-bath equilibration.

At zero temperature the absorption channel is gone, the upper-level
population decays with the emission envelope, and everything ends in the
ground state.  At high temperature the occupations dwarf the spontaneous
+1, the channels coincide, and the populations equilibrate to one half
regardless of where they start.
"""

import math

import numpy as np

from spinboson import (SpinBosonModel, bath_statistics,
                       interaction_decomposition, propagate, rate_functions,
                       vacuum_rates)

print("== zero temperature ==")
vac = SpinBosonModel(1.0, [(1.0, 0.1)], beta=math.inf)
rates = rate_functions(vac)
grid = np.linspace(0.0, 14.0, 8)
traj = propagate(interaction_decomposition(vac), bath_statistics(vac),
                 np.diag([1.0, 0.0]).astype(complex), grid, substeps=60)
_, (integral,) = rates.sums(grid, ("decay_integral",))
envelope = np.exp(-8.0 * integral)
print("      t    rho00(RK4)   envelope exp(-8 Int)")
for t, s, e in zip(grid, traj.states, envelope):
    print(f"  {t:5.1f}   {s[0, 0].real:10.6f}   {e:20.6f}")
decay, shift = vacuum_rates(vac, 3.0)
print(f"vacuum pair at t = 3: decay rate {decay:.4f} (= 2 g^2 t on resonance), "
      f"shift {shift:.4f}")
print()

print("== high temperature ==")
hot = SpinBosonModel(1.0, [(0.9, 0.008), (1.0, 0.008), (1.1, 0.008)], beta=0.001)
print(f"mode occupations ~ {np.round(hot.occupations(), 0)}")
decomp, bath = interaction_decomposition(hot), bath_statistics(hot)
grid = np.linspace(0.0, 5.0, 11)
for rho00_start in (1.0, 0.2):
    rho0 = np.diag([rho00_start, 1.0 - rho00_start]).astype(complex)
    traj = propagate(decomp, bath, rho0, grid, substeps=100)
    line = "  ".join(f"{s[0, 0].real:.4f}" for s in traj.states[::2])
    print(f"  rho00 from {rho00_start:.1f}:  {line}")
print("both columns drift to 0.5: the equally-populated steady state")
