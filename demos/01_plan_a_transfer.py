"""Plan a budget-constrained bulk transfer across the 6-node testbed.

Loads the shipped testbed topology, asks for a 1 GB transfer from beijing
to virginia under a $0.50 budget, and prints the chosen path with its
per-node billing configuration.
"""

from pathlib import Path

from budgetpath import TransferRequest, load_topology, plan_transfer

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

topology = load_topology(FIXTURES / "testbed6.json")
print(f"topology: {len(topology)} nodes, {len(topology.links)} directed links")

request = TransferRequest(source=0, destination=5, data_size_gb=1.0,
                          budget_usd=0.50, max_iterations=10)
plan = plan_transfer(topology, request)
assert plan is not None, "budget too small for any path"

names = [topology.node(i).name for i in plan.path]
print(f"path: {' -> '.join(names)}")
print(f"predicted cost:    ${plan.predicted_cost_usd:.4f} (budget ${request.budget_usd})")
print(f"predicted latency: {plan.predicted_latency_s:.2f} s")
print(f"bandwidth fraction k = {plan.fraction_k}, binary iterations = {plan.iterations_used}")
print()
print("per-node billing:")
for node_id, config in sorted(plan.configs.items()):
    print(f"  {topology.node(node_id).name}: {config.method.name} "
          f"at {config.bandwidth_mbps:.0f} Mbps")

# squeeze the budget until the full-bandwidth configuration fails and the
# bandwidth binary search has to kick in
tight = TransferRequest(0, 5, 30.0, 3.2, max_iterations=12)
tight_plan = plan_transfer(topology, tight)
if tight_plan is None:
    print("\n30 GB under $3.20: insufficient budget")
else:
    print(f"\n30 GB under $3.20: k = {tight_plan.fraction_k}, "
          f"cost ${tight_plan.predicted_cost_usd:.4f}, "
          f"latency {tight_plan.predicted_latency_s:.0f} s")
