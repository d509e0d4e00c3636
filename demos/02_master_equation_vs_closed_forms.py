"""Propagating the master equation and checking the closed-form solutions.

The reduced dynamics decouples: the coherence obeys a homogeneous linear
equation solved by a phase factor times a decay envelope, and the
population obeys an inhomogeneous one solved by variation of parameters.
This script integrates the full matrix equation with RK4 and lines both up
against those closed forms.
"""

import numpy as np

from spinboson import (SpinBosonModel, bath_statistics, coherence_solution,
                       interaction_decomposition, population_solution,
                       propagate, rate_functions)

model = SpinBosonModel(
    omega0=1.0,
    modes=[(0.8, 0.10), (1.0, 0.08), (1.3, 0.06)],
    beta=1.0,
)
rates = rate_functions(model)

rho0 = np.array([[0.7, 0.25 + 0.10j],
                 [0.25 - 0.10j, 0.3]])
grid = np.linspace(0.0, 10.0, 41)

traj = propagate(interaction_decomposition(model), bath_statistics(model),
                 rho0, grid)
print(f"RK4 with {traj.metadata['substeps']} substeps per sample interval, "
      f"step-doubling error estimate {traj.metadata['error_estimate']:.1e}")
print()

coh = coherence_solution(rho0[0, 1], rates, grid)
pop = population_solution(rho0[0, 0].real, rates, grid)

print("      t    rho00(RK4)  rho00(closed)   |rho01|(RK4)  |rho01|(closed)")
for i in range(0, len(grid), 5):
    print(f"  {grid[i]:5.1f}   {traj.states[i, 0, 0].real:10.6f}  "
          f"{pop[i]:13.6f}   {abs(traj.states[i, 0, 1]):12.6f}  {abs(coh[i]):15.6f}")
print()

print(f"max |rho01 difference| over the grid: "
      f"{np.max(np.abs(traj.states[:, 0, 1] - coh)):.2e}")
print(f"max |rho00 difference| over the grid: "
      f"{np.max(np.abs(traj.states[:, 0, 0].real - pop)):.2e}")
print()
print("trajectory health:")
print(f"  max trace error        {np.max(traj.trace_errors()):.2e}")
print(f"  max hermiticity error  {np.max(traj.hermiticity_errors()):.2e}")
print(f"  min eigenvalue         {np.min(traj.metadata['min_eigenvalue']):.2e}")
