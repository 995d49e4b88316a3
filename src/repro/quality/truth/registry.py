"""Truth-inference methods by the short names the engine and the CLI take."""

from repro.quality.truth.bayesian import BayesianVote
from repro.quality.truth.dawid_skene import DawidSkene
from repro.quality.truth.glad import Glad
from repro.quality.truth.mace import Mace
from repro.quality.truth.majority import MajorityVote, WeightedMajorityVote
from repro.quality.truth.numeric import CatdAggregator, MeanAggregator, MedianAggregator
from repro.quality.truth.zencrowd import ZenCrowd

#: Registry of categorical truth-inference methods by short name.
CATEGORICAL_METHODS = {
    "mv": MajorityVote,
    "wmv": WeightedMajorityVote,
    "ds": DawidSkene,
    "zc": ZenCrowd,
    "glad": Glad,
    "bayes": BayesianVote,
    "mace": Mace,
}

#: Registry of numeric aggregation methods by short name.
NUMERIC_METHODS = {
    "mean": MeanAggregator,
    "median": MedianAggregator,
    "catd": CatdAggregator,
}
