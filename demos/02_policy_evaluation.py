"""Evaluate defender policies exactly and rebuild the published utility table.

Everything here is exact inference: chain-rule enumeration for spot checks,
variable elimination for the full table. The boldface cells of the
published table fall out of the per-column argmax.
"""
from araid import constant_policy, decision_table, expected_utility, marginal_distribution
from araid.drilling import build_drilling_model
from araid.resources import read_table

diagram = build_drilling_model()

# A policy fixes every decision; evidence conditions on what happened.
relaxed = constant_policy(diagram, {
    "DP": "no_additional", "DF": "no_forensic", "DT": "accept",
    "DR": "continue", "AP": "perpetrate",
})

print("defender's expected utility, cheapest posture:")
for uc, ua in (("normal", "no_attack"), ("riskier", "attack")):
    eu = expected_utility(diagram, "defender", relaxed, {"UC": uc, "UA": ua})
    print(f"  conditions={uc:8s} event={ua:10s} -> {eu:.5f}")

print("\ncasualty chances while drilling through an attack in rough conditions:")
dist = marginal_distribution(diagram, relaxed, {"UA": "attack", "UC": "riskier"}, "UH")
for label, p in dist.items():
    print(f"  {label}: {p:.3f}")

# The full table: four defender decisions as axes, conditioned on the
# context/attack events, with the per-column maximum marked.
table = decision_table(diagram, "defender", ["DP", "DF", "DT", "DR", "UC", "UA"])
print(f"\nfull defender table: {len(table.cells)} cells, "
      f"grouped per {table.axes[4:]}")
print("column maxima (the published boldface):")
for key in sorted(table.argmax, key=lambda k: (k[-2:], k)):
    dp, df, dt, dr, uc, ua = key
    print(f"  {uc:8s}/{ua:10s}: {dp}, {df}, {dt}, {dr}  -> {table.cells[key]:.5f}")

# Cross-check against the shipped transcription of the published figures.
published = {(r["DP"], r["DF"], r["DT"], r["DR"], r["UC"], r["UA"]): float(r["eu"])
             for r in read_table("T12_expected.csv")}
worst = max(abs(table.cells[k] - v) for k, v in published.items())
print(f"\nlargest |engine - published| over all 96 cells: {worst:.2e}")
