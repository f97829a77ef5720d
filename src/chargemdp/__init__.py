"""Exact-arithmetic MDP payoffs under finitely additive aggregation charges."""

from .blackwell import (Poly, RationalFunction, average_value, blackwell_policy,
                        discounted_value, discounted_value_at)
from .charges import (Charge, CValue, DyadicLimit, Frequency, Geometric,
                      IllFormedRestrict, Mix, PointMass, Restrict, integrate, value)
from .mdp import (BudgetExceeded, CycleNotFound, Mdp, MdpValidationError,
                  PeriodicMarkovStrategy, StrategyMismatch,
                  best_periodic, build_mdp, ensure_valid,
                  expected_reward_stream, payoff,
                  periodic, random_mdp, stationary, validate)
from .periodic_sets import (EventuallyPeriodicSet, arithmetic, complement,
                            contract, density, difference, empty, evens,
                            intersect, make, member, multiples, naturals,
                            odds, shift, union)
from .streams import RationalStream, stream

__all__ = [
    "Poly", "RationalFunction", "average_value", "blackwell_policy",
    "discounted_value", "discounted_value_at",
    "CValue", "Charge", "DyadicLimit", "Frequency", "Geometric", "IllFormedRestrict",
    "Mix", "PointMass", "Restrict", "integrate", "value",
    "BudgetExceeded", "CycleNotFound", "Mdp", "MdpValidationError",
    "PeriodicMarkovStrategy", "StrategyMismatch", "best_periodic", "build_mdp",
    "ensure_valid", "expected_reward_stream", "payoff",
    "periodic", "random_mdp", "stationary", "validate",
    "EventuallyPeriodicSet", "arithmetic", "complement", "contract", "density",
    "difference", "empty", "evens", "intersect", "make", "member", "multiples",
    "naturals", "odds", "shift", "union",
    "RationalStream", "stream",
]
