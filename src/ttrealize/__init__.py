"""Index realization for free-group automorphisms via gated train track maps."""

from . import marking  # no production caller; bench/tracing.py patches it by module
from .core import GateStructure, Graph, GraphError, parse_index_list
from .maps import GraphMap, MapChain
from .realize import RealizationResult, enumerate_admissible, realize, validate_and_classify
from .certify import CertificationReport, certify_realization, stable_index_list
from .experiment import FrequencyTable, run_experiment, sample_positive_automorphism

__version__ = "0.1.0"
