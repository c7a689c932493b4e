"""Branch- and predicate-prediction structures.

The package contains the raw prediction structures; *schemes* (how the
pipeline drives them — when history is updated, how recovery works, how
predictions flow through the PPRF, how a fast first level is overridden by
a slow second level) live in :mod:`repro.core`.  Every structure is a
:class:`~repro.predictors.base.DirectionPredictor`: a scheme plans each PC
once and calls one kernel per table per prediction and per update.

Structures provided:

* :class:`~repro.predictors.counters.SaturatingCounter` and counter tables;
* :class:`~repro.predictors.history.GlobalHistoryRegister` and
  :class:`~repro.predictors.history.LocalHistoryTable` with speculative
  update and bit repair;
* :class:`~repro.predictors.gshare.GsharePredictor` — the fast first-level
  predictor of the two-level scheme (Table 1);
* :class:`~repro.predictors.perceptron.PerceptronPredictor` — the slow,
  highly accurate second-level predictor (global + local history);
* :class:`~repro.predictors.peppa.PEPPAPredictor` — the Predicate Enhanced
  Prediction scheme of August et al. used as a comparison point;
* :class:`~repro.predictors.predicate_perceptron.PredicatePerceptronPredictor`
  — the paper's predictor: a perceptron indexed by *compare* PC producing two
  predicate predictions through two hash functions over a single PVT;
* :class:`~repro.predictors.confidence.ConfidenceEstimator` — the saturating
  counter confidence filter used by selective predicate prediction;
* :class:`~repro.predictors.tage.TAGEPredictor` — a TAGE-class geometric-
  history backend (tagged tables, provider/altpred selection, usefulness
  counters) usable as an alternative second level in any scheme, plus its
  predicate-slot adapter;
* :class:`~repro.predictors.predicate_aware.PredicateAwarePredictor` — the
  predicate-enhanced perceptron whose input mixes branch history with
  resolved predicate bits;
* idealized variants (no aliasing, oracle history) used by the paper's
  isolation experiments.
"""

from repro.predictors.base import DirectionPredictor, PredictorSizeReport
from repro.predictors.counters import SaturatingCounter, CounterTable
from repro.predictors.history import GlobalHistoryRegister, LocalHistoryTable
from repro.predictors.gshare import GsharePredictor
from repro.predictors.perceptron import PerceptronPredictor, PerceptronConfig
from repro.predictors.peppa import PEPPAPredictor, PEPPAConfig
from repro.predictors.predicate_perceptron import (
    PredicatePerceptronPredictor,
    PredicatePredictorConfig,
)
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.predicate_aware import (
    PredicateAwareConfig,
    PredicateAwarePredictor,
)
from repro.predictors.tage import TAGEConfig, TAGEPredictor, TagePredicatePredictor
from repro.predictors.ideal import (
    IdealHistoryOracle,
    NoAliasPerceptron,
    NoAliasPredicatePerceptron,
)

__all__ = [
    "DirectionPredictor",
    "PredictorSizeReport",
    "SaturatingCounter",
    "CounterTable",
    "GlobalHistoryRegister",
    "LocalHistoryTable",
    "GsharePredictor",
    "PerceptronPredictor",
    "PerceptronConfig",
    "PEPPAPredictor",
    "PEPPAConfig",
    "PredicatePerceptronPredictor",
    "PredicatePredictorConfig",
    "ConfidenceEstimator",
    "PredicateAwareConfig",
    "PredicateAwarePredictor",
    "TAGEConfig",
    "TAGEPredictor",
    "TagePredicatePredictor",
    "IdealHistoryOracle",
    "NoAliasPerceptron",
    "NoAliasPredicatePerceptron",
]
