"""Build the drilling cybersecurity diagram and poke at its structure.

The model pits a rig operator (defender) against a business-motivated
intruder (attacker): four defender decisions, one attacker decision, six
uncertainties, deterministic cost roll-ups, and per-agent preferences.
"""
from dataclasses import replace

from araid import serialize_model, topological_order, validate_diagram
from araid.diagram import Cpt, Node, NodeKind
from araid.drilling import build_drilling_model

diagram = build_drilling_model()
print(f"built diagram with {len(diagram.nodes)} nodes "
      f"and {len(diagram.agents)} agents")
print("violations:", validate_diagram(diagram))

print("\nevaluation order (parents always first):")
print("  " + " -> ".join(topological_order(diagram)))

print("\ndecision schedules:")
for agent_id, seq in sorted(diagram.decision_order.items()):
    print(f"  {agent_id}: {', '.join(seq)}")

# Diagrams are values: swap in a variant of a node and the copy revalidates.
# Dropping the context information arc means the attacker no longer sees
# the riskier/normal state when moving.
blind = diagram.replace_nodes([replace(diagram.nodes["AP"], parents=("DP", "DF"))])
print("\nattacker information set with the context arc:",
      diagram.nodes["AP"].parents)
print("attacker information set without it:          ",
      blind.nodes["AP"].parents)

# Validation reports *every* structural problem, as data. Break one CPT row
# and watch it surface.
broken_row = Cpt({**diagram.nodes["UC"].payload.rows, (): (0.3, 0.6)})
broken = dict(diagram.nodes)
broken["UC"] = Node("UC", NodeKind.CHANCE, domain=diagram.nodes["UC"].domain,
                    payload=broken_row)
from araid.diagram import Diagram  # noqa: E402

problems = validate_diagram(Diagram(agents=diagram.agents, nodes=broken,
                                    decision_order=diagram.decision_order))
print("\nafter corrupting one probability row:")
for violation in problems:
    print("  -", violation)

# The whole model serializes to a line-oriented text format and parses back
# to an identical diagram (see demos/04 for authoring by hand).
text = serialize_model(diagram)
print(f"\nserialized form: {len(text.splitlines())} lines; first five:")
for line in text.splitlines()[:5]:
    print("  " + line)
