"""Monte-Carlo oracles against the closed forms.

Every analytical result in the library has a sampling-based counterpart;
this script runs a quick round of those comparisons (the full set with a
million samples per point lives in the acceptance suite and the
``mcrnet validate`` command).
"""

from mcrnet import latency, montecarlo, multipath
from mcrnet.montecarlo import proportion_z
from mcrnet.multipath import EXACT_CEIL
from mcrnet.scenario import load_scenario

SEED = 11
TRIALS = 150_000

print("=== k-th nearest edge node distance (10 per km^2) ===")
# one ordered draw: row p - 1 holds the p-th nearest distance of each
# trial, the same values a draw at k = p gives
rows = montecarlo.nearest_distances(1e-5, 3, TRIALS, SEED)
for p, row in enumerate(rows, start=1):
    ref = multipath.mean_kth_edc_distance(1e-5, p)
    est = montecarlo.mean_estimate(row)
    print(f"  p={p}: closed form {ref:7.2f} m, sampled {est.mean:7.2f} "
          f"+/- {est.std_error:.2f} m  (z = {est.z_score(ref):+.2f})")

print()
print("=== link success probabilities ===")
cases = [
    ("uplink  (theta1 = -60 dBm)", {"theta1_dbm": -60},
     latency.uplink_success_prob, montecarlo.estimate_uplink_success),
    ("delivery (defaults)        ", {},
     latency.deli_success_prob, montecarlo.estimate_deli_success),
    ("access  (theta3 = -5 dBm) ", {"theta3_dbm": -5},
     latency.access_success_prob, montecarlo.estimate_access_success),
    ("shadowing (theta4 = 6 dBm)", {"theta4_dbm": 6},
     multipath.mmwave_success_prob, montecarlo.estimate_shadowing_success),
]
for label, overrides, analytic_fn, oracle_fn in cases:
    s = load_scenario(overrides=overrides)
    analytic = analytic_fn(s)
    est = oracle_fn(s, TRIALS, SEED)
    print(f"  {label}: analytic {analytic:.4f}, sampled {est.mean:.4f}  "
          f"(z = {proportion_z(est, analytic):+.2f})")

print()
print("=== packet-level backhaul simulation ===")
s = load_scenario()
est = montecarlo.simulate_backhaul(s, trials=1000, seed=SEED)
analytic = multipath.multipath_backhaul_delay(s, EXACT_CEIL)
rel = abs(est.mean - analytic) / analytic
print(f"  stop-and-wait simulator {est.mean * 1e3:.3f} ms vs integer-hop "
      f"closed form {analytic * 1e3:.3f} ms  ({rel:.1%} apart)")
print(f"  rerunning with the same seed reproduces the estimate exactly: "
      f"{montecarlo.simulate_backhaul(s, trials=1000, seed=SEED) == est}")
