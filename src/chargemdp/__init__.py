"""Exact-arithmetic MDP payoffs under finitely additive aggregation charges."""

from .blackwell import (BETA, Poly, RationalFunction, average_value,
                        blackwell_policy, discounted_value, discounted_value_at,
                        sign_near_one)
from .charges import (Charge, CValue, DyadicLimit, Frequency, Geometric,
                      IllFormedRestrict, Mix, PointMass, Restrict, integrate,
                      is_diffuse, sandwich_check, value)
from .mdp import (BudgetExceeded, CycleNotFound, Mdp, MdpValidationError,
                  PeriodicMarkovStrategy, StationaryStrategy, StrategyMismatch,
                  best_periodic, build_mdp, ensure_valid,
                  enumerate_pure_periodic, enumerate_pure_stationary,
                  expected_reward_stream, payoff, periodic, random_mdp,
                  stationary, validate)
from .periodic_sets import (EventuallyPeriodicSet, arithmetic, complement,
                            contract, density, difference, empty, evens,
                            intersect, is_subset, make, member, multiples,
                            naturals, odds, shift, union)
from .streams import RationalStream, add, combine, constant, indicator, scale, stream

__all__ = [name for name in dir() if not name.startswith("_")]
