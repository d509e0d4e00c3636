"""Rate functions of a thermal spin-boson model.

Walks through the four time-dependent rates that drive the reduced
dynamics: the absorption pair (weighted by mode occupations, gone at zero
temperature) and the emission pair (occupations + 1).  Shows the split into
a decay part and a level-shift part, the occupation-independent difference
between the channels, and how a dense mode comb makes the emission decay
rate settle on the constant resonance value.
"""

import numpy as np

from spinboson import (SpectralDiscretization, SpinBosonModel, markov_rates,
                       ohmic_density, rate_functions, thermal_occupation)

model = SpinBosonModel(
    omega0=1.0,
    modes=[(0.8, 0.10), (1.05, 0.08), (1.3, 0.06)],
    beta=1.0,
)
rates = rate_functions(model)

print("three discrete modes at inverse temperature 1")
print(f"  mode occupations: {np.round(model.occupations(), 4)}")
print()

grid = np.linspace(0.0, 8.0, 9)
print("      t   absorption.decay  absorption.shift  emission.decay  emission.shift")
for t in grid:
    (a_decay, a_shift), (e_decay, e_shift) = rates.sums(t, ("decay", "shift"))
    print(f"  {t:5.1f}   {a_decay:16.6f}  {a_shift:16.6f}  {e_decay:14.6f}  {e_shift:14.6f}")
print()

print("the emission channel minus the absorption channel is the")
print("occupation-independent (spontaneous) part, here checked at t = 5:")
spontaneous = sum(g * g * np.sin((w - model.omega0) * 5.0) / (w - model.omega0)
                  for w, g in model.modes)
(absorption,), (emission,) = rates.sums(5.0, ("decay",))
print(f"  emission.decay - absorption.decay = {emission - absorption:.10f}")
print(f"  direct spontaneous sum            = {spontaneous:.10f}")
print()

# a dense comb of modes approaching a continuum: the time-resolved emission
# decay rate rises over one correlation time and then plateaus
disc = SpectralDiscretization(ohmic_density(0.01, 5.0), 0.01, 10.0, 400)
dense = disc.build_model(1.0, 1.0)
dense_rates = rate_functions(dense)
_, plateau = markov_rates(disc, dense)

print("400-mode ohmic comb (cutoff 5): emission decay rate vs the")
print(f"resonance value pi * J(1) * (n(1) + 1) = {plateau:.6f}")
print(f"  (n(1) = {thermal_occupation(1.0, 1.0):.6f} at this temperature)")
for t in (0.5, 1.0, 2.0, 5.0, 15.0, 30.0, 50.0):
    (val,) = dense_rates.emission.sums(t, parts=("decay",))
    print(f"  t = {t:5.1f}: {val:.6f}   ({100 * (val / plateau - 1):+6.2f} %)")
