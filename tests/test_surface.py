"""The package's public names, the public attributes of its public
classes, and its only dataclasses.  Adding or removing one is a
deliberate change to these tables."""

import dataclasses
import importlib
import inspect
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
    "evens", "expected_reward_stream", "integrate",
    "intersect", "make", "member", "multiples",
    "naturals", "odds", "payoff", "periodic", "random_mdp",
    "shift", "stationary", "stream", "union",
    "validate", "value",
]

# per public class, the public names it defines itself (vars(cls)): the
# benchmark's tracer wraps each public method of a public class by name
METHODS = {
    "BudgetExceeded": [],
    "CValue": ["candidates", "exact", "is_exact", "low"],
    "Charge": [],
    "CycleNotFound": [],
    "DyadicLimit": [],
    "EventuallyPeriodicSet": ["residues"],
    "Frequency": [],
    "Geometric": [],
    "IllFormedRestrict": [],
    "Mdp": ["rewards", "transitions"],
    "MdpValidationError": [],
    "Mix": [],
    "PeriodicMarkovStrategy": ["action", "period", "preperiod_length", "rows"],
    "PointMass": [],
    "Poly": ["degree", "is_zero", "render"],
    "RationalFunction": ["const", "den", "evaluate", "is_zero", "num", "render"],
    "RationalStream": [],
    "Restrict": [],
    "StrategyMismatch": [],
}

# bench/test_bench.py calls dataclasses.replace on these three
DATACLASSES = ["chargemdp.counterexamples.CheckRow",
               "chargemdp.counterexamples.VerificationReport",
               "chargemdp.mdp.SearchResult"]


def test_public_names_are_pinned():
    assert sorted(chargemdp.__all__) == PUBLIC


def test_public_class_attributes_are_pinned():
    found = {name: sorted(k for k in vars(cls) if not k.startswith("_"))
             for name in chargemdp.__all__
             for cls in [getattr(chargemdp, name)] if inspect.isclass(cls)}
    assert found == METHODS


def test_only_these_classes_are_dataclasses():
    found = sorted(f"{m.__name__}.{name}"
                   for info in pkgutil.iter_modules(chargemdp.__path__, "chargemdp.")
                   if info.name != "chargemdp.__main__"
                   for m in [importlib.import_module(info.name)]
                   for name, v in vars(m).items()
                   if isinstance(v, type) and v.__module__ == m.__name__
                   and dataclasses.is_dataclass(v))
    assert found == DATACLASSES
