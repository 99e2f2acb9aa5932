"""Index realization for free-group automorphisms via gated train track maps."""

from .core import (
    GateStructure,
    Graph,
    GraphError,
    Path,
    is_legal_path,
    parse_index_list,
    tighten,
    validate_graph,
)
from .maps import GraphMap, MapChain, compose_maps, is_primitive, transition_matrix
from .marking import Pi1Marking, build_marking, pi1_automorphism, verify_homotopy_equivalence
from .traintrack import (
    InpSearchResult,
    LegalizingCertificate,
    LongTurn,
    Turn,
    WhiteheadGraph,
    check_train_track_morphism,
    direction_map,
    enumerate_long_turns,
    find_periodic_inps,
    gate_index_list,
    intrinsic_gate_structure,
    long_turn_image,
    periodic_vertices,
    verify_legalizing,
)
from .realize import (
    RealizationBlueprint,
    RealizationResult,
    build_graph,
    realize,
    select_paths,
    validate_and_classify,
)
from .certify import CertificationReport, certify_realization, stable_index_list
from .experiment import FrequencyTable, run_experiment, sample_positive_automorphism

__version__ = "0.1.0"
