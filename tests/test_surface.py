"""The package's public names and its only dataclasses.  Adding or removing
one is a deliberate change to these lists."""

import dataclasses
import importlib
import pkgutil

import chargemdp

PUBLIC = [
    "BudgetExceeded", "CValue", "Charge", "CycleNotFound", "DyadicLimit",
    "EventuallyPeriodicSet", "Frequency", "Geometric", "IllFormedRestrict", "Mdp",
    "MdpValidationError", "Mix", "PeriodicMarkovStrategy", "PointMass", "Poly",
    "RationalFunction", "RationalStream", "Restrict", "StrategyMismatch",
    "arithmetic", "average_value", "best_periodic", "blackwell_policy",
    "build_mdp", "complement", "contract", "density", "difference",
    "discounted_value", "discounted_value_at", "empty", "ensure_valid",
    "enumerate_pure_periodic", "evens", "expected_reward_stream", "integrate",
    "intersect", "make", "member", "multiples",
    "naturals", "odds", "payoff", "periodic", "random_mdp",
    "sandwich_check", "shift", "stationary", "stream", "union",
    "validate", "value",
]

# bench/test_bench.py calls dataclasses.replace on these three
DATACLASSES = ["chargemdp.counterexamples.CheckRow",
               "chargemdp.counterexamples.VerificationReport",
               "chargemdp.mdp.SearchResult"]


def test_public_names_are_pinned():
    assert sorted(chargemdp.__all__) == PUBLIC


def test_only_these_classes_are_dataclasses():
    found = sorted(f"{m.__name__}.{name}"
                   for info in pkgutil.iter_modules(chargemdp.__path__, "chargemdp.")
                   if info.name != "chargemdp.__main__"
                   for m in [importlib.import_module(info.name)]
                   for name, v in vars(m).items()
                   if isinstance(v, type) and v.__module__ == m.__name__
                   and dataclasses.is_dataclass(v))
    assert found == DATACLASSES
