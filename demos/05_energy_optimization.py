"""Service-effective-energy optimisation over cache size and edge density.

Step 1 converts the delay budget into a critical edge density per cache
size; step 2 picks the cheapest feasible pair.  The multipath scheme
needs sparser deployments than the single-path baseline at every cache
size, which is where its energy advantage comes from.
"""

from mcrnet.energy import load_energy_model
from mcrnet.multipath import SINGLE_PATH
from mcrnet.optimizer import optimize_cache_density, reduced_delay_budget
from mcrnet.scenario import load_scenario

s = load_scenario()
em = load_energy_model()

budget = reduced_delay_budget(s)
print(f"delay budget left for backhaul + fiber: {budget * 1e3:.2f} ms "
      f"of {s.d_max * 1e3:.0f} ms")

print()
print("=== two-step optimisation, both schemes ===")
outcomes = {}
for scheme in ("multipath", SINGLE_PATH):
    out = optimize_cache_density(s, em, scheme=scheme)
    outcomes[scheme] = out
    best = out.best_pair
    print(f"  {scheme:<12} best psi = {best.psi:3d}, critical density "
          f"{best.lambda_e_crit * 1e6:6.2f} /km^2, "
          f"E_sys = {out.e_sys_min:.4g} J/m^2 "
          f"({len(out.psi)} feasible sizes)")

multi, single = outcomes["multipath"], outcomes[SINGLE_PATH]
print(f"  multipath reduces the minimum SEE by "
      f"{(1 - multi.e_sys_min / single.e_sys_min):.1%}")

print()
print("=== the trade-off along the multipath feasible set ===")
print(f"{'psi':>5} {'lambda_e /km^2':>15} {'E_sys J/m^2':>13}")
row_of = {psi: i for i, psi in enumerate(multi.psi)}
for psi in (1, 50, 100, 189, 300, 400, 500):
    if psi not in row_of:
        print(f"{psi:5d} {'infeasible':>15}")
        continue
    lam = multi.lambda_e_crit[row_of[psi]]
    e = multi.e_sys[row_of[psi]]
    marker = "  <- optimum" if psi == multi.best_pair.psi else ""
    print(f"{psi:5d} {lam * 1e6:15.3f} {e:13.4g}{marker}")

print()
print("bigger caches cut fiber misses so sparser deployments meet the "
      "budget,")
print("but storage energy grows with every cached item: the optimum sits "
      "between.")
