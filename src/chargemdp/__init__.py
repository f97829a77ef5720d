"""Exact-arithmetic MDP payoffs under finitely additive aggregation charges."""

from .blackwell import (Poly, RationalFunction, average_value, blackwell_policy,
                        discounted_value, discounted_value_at)
from .charges import (Charge, CValue, DyadicLimit, Frequency, Geometric,
                      IllFormedRestrict, Mix, PointMass, Restrict, integrate,
                      is_diffuse, sandwich_check, value)
from .mdp import (BudgetExceeded, CycleNotFound, Mdp, MdpValidationError,
                  PeriodicMarkovStrategy, StrategyMismatch,
                  best_periodic, build_mdp, ensure_valid,
                  enumerate_pure_periodic, expected_reward_stream, payoff,
                  periodic, random_mdp, stationary, validate)
from .periodic_sets import (EventuallyPeriodicSet, arithmetic, complement,
                            contract, density, difference, empty, evens,
                            intersect, make, member, multiples, naturals,
                            odds, shift, union)
from .streams import RationalStream, indicator, stream

__all__ = [name for name in dir() if not name.startswith("_")]
