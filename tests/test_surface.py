"""The package's public names.  Adding or removing one is a deliberate
change to this list."""

import chargemdp

PUBLIC = [
    "BudgetExceeded", "CValue", "Charge", "CycleNotFound", "DyadicLimit",
    "EventuallyPeriodicSet", "Frequency", "Geometric", "IllFormedRestrict", "Mdp",
    "MdpValidationError", "Mix", "PeriodicMarkovStrategy", "PointMass", "Poly",
    "RationalFunction", "RationalStream", "Restrict", "StrategyMismatch",
    "arithmetic", "average_value", "best_periodic", "blackwell", "blackwell_policy",
    "build_mdp", "charges", "complement", "contract", "density", "difference",
    "discounted_value", "discounted_value_at", "empty", "ensure_valid",
    "enumerate_pure_periodic", "evens", "expected_reward_stream", "indicator",
    "integrate", "intersect", "is_diffuse", "make", "mdp", "member", "multiples",
    "naturals", "odds", "payoff", "periodic", "periodic_sets", "random_mdp",
    "sandwich_check", "shift", "stationary", "stream", "streams", "union",
    "validate", "value",
]


def test_public_names_are_pinned():
    assert sorted(chargemdp.__all__) == PUBLIC
