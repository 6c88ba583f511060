"""Continuous-time dynamic graphs, refinement tests, and a toy dynamic GNN.

The package models a dynamic graph as a start graph plus an ordered stream
of timestamped events; a static graph is a stream with no events, so one
API serves both.  On top of that it provides color refinement along the
stream with per-node color trajectories, unfolding-tree signature
trajectories with the decisive depth bound, a brute-force isomorphism
oracle, component decomposition and matching, a trainable dynamic network
with gradient checking and its injective symbolic counterpart, and seeded
certification experiments tying those pieces together.
"""

from .cdg import (
    ADD,
    ATTR_CHANGE,
    Cdg,
    DELETE,
    Diagnostic,
    EDGE,
    Event,
    NODE,
    Snapshot,
    StartGraph,
    adjacency,
    apply_event,
    attr_bytes,
    edge_key,
    replay,
    snapshots,
    timestamps,
    universe,
    validate_stream,
)
from .cgnn import (
    CdynTarget,
    CgnnModel,
    ExpressivityReport,
    Mlp,
    NUMERIC,
    PER_INTERVAL,
    SHARED_DT,
    SgnnConfig,
    StateMatrix,
    TemporalConfig,
    TrainResult,
    cgnn_forward,
    expressivity_check,
    gradient_check,
    loss_and_gradients,
    model_params_json,
    readout,
    symbolic_state_trajectories,
    train_to_target,
    training_loss,
)
from .components import (
    ComponentMatchVerdict,
    ComponentPartition,
    components,
    is_disconnected,
    match_components,
)
from .errors import (
    AddExistingError,
    AttrChangeMissingError,
    CdgError,
    DeleteMissingError,
    DimensionMismatchError,
    EdgeEndpointMissingError,
    EmptyInputError,
    GenerationExhaustedError,
    InvalidBoundError,
    InvalidCdgError,
    LengthMismatchError,
    MalformedStreamError,
    MalformedTargetError,
    TargetNotCutRespectingError,
    TargetUndefinedError,
    TimestampMismatchError,
    TooLargeError,
    UnknownTimestampError,
)
from .experiments import (
    EXPERIMENT_NAMES,
    Report,
    load_pair_corpus,
    load_stream_corpus,
    make_pair,
    run_experiment,
    sub_seed,
    write_pair_corpus,
    write_stream_corpus,
)
from .generate import (
    GeneratorConfig,
    generate,
    generate_isomorphic_pair,
    relabel_cdg,
    six_cycle,
    two_triangles,
)
from .iso import (
    IDENTITY,
    IsoVerdict,
    RENAMING,
    brute_force_isomorphic,
    check_isomorphism_witness,
)
from .serialize import cdg_from_jsonl, cdg_to_jsonl, load_cdg, save_cdg
from .trees import (
    CorrespondenceReport,
    CutVerdict,
    DepthBoundReport,
    EMPTY_TREE,
    TreeTrajectory,
    UnfoldingTree,
    cut_trajectories,
    depth_bound,
    graph_cut_equivalent,
    signature,
    unfolding_tree,
    verify_cut_cwl_correspondence,
    verify_depth_bound,
)
from .wl import (
    BIJECTION,
    BOTTOM,
    ColorDictionary,
    EXISTENCE,
    GraphComparison,
    check_comparable,
    compare_graphs,
    cwl,
)

__version__ = "0.1.0"
