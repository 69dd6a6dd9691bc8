"""araid: discrete multi-agent influence diagrams with an ARA solver.

Model a defender and an attacker over a shared DAG of decisions,
uncertainties, costs and preferences; evaluate policies exactly; forecast
the attacker's optimal random action under parameter uncertainty; and
optimize the defender against that forecast.
"""
from .diagram import (
    Agent,
    AgentKind,
    Cpt,
    DetTable,
    Diagram,
    DiagramError,
    Domain,
    Node,
    NodeKind,
    UtilitySpec,
    ValueSpec,
    Violation,
    build_diagram,
    topological_order,
    validate_diagram,
)
from .inference import (
    AmbiguousCellError,
    EuTable,
    ImpossibleEvidenceError,
    constant_policy,
    constant_rule,
    decision_table,
    enumerate_expected_utility,
    enumerate_expected_value,
    enumerate_marginal,
    expected_utility,
    expected_value,
    marginal_distribution,
)
from .ara import (
    AttackForecast,
    BestResponse,
    DefenderSolution,
    DirichletRule,
    ParameterUncertainty,
    PerturbRule,
    PointRule,
    RankedPolicy,
    UniformRule,
    apply_forecast,
    attacker_view,
    best_response,
    forecast_attack,
    solve_defender,
)
from .modelfile import (
    ModelFormatError,
    ParseDiagnostic,
    parse_model,
    serialize_model,
    try_parse_model,
)

__version__ = "0.1.0"

__all__ = [
    "Agent", "AgentKind", "Cpt", "DetTable", "Diagram", "DiagramError", "Domain",
    "Node", "NodeKind", "UtilitySpec", "ValueSpec", "Violation",
    "build_diagram", "topological_order", "validate_diagram",
    "AmbiguousCellError", "EuTable", "ImpossibleEvidenceError",
    "constant_policy", "constant_rule", "decision_table",
    "enumerate_expected_utility", "enumerate_expected_value", "enumerate_marginal",
    "expected_utility", "expected_value", "marginal_distribution",
    "AttackForecast", "BestResponse", "DefenderSolution", "DirichletRule",
    "ParameterUncertainty", "PerturbRule", "PointRule", "RankedPolicy", "UniformRule",
    "apply_forecast", "attacker_view", "best_response", "forecast_attack",
    "solve_defender",
    "ModelFormatError", "ParseDiagnostic", "parse_model", "serialize_model",
    "try_parse_model",
    "__version__",
]
