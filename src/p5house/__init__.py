"""Structure of graphs with no induced four-edge path and no induced house.

The package decomposes such graphs into split-graph and pentagon leaves
composed by substitution, split graph unification, and split graph
unification in the complement; verifies trees by exact recomposition; and
synthesizes new members by running the grammar forward.  A brute-force
induced-pattern oracle is the ground truth throughout.

All values are immutable and all operations are pure functions, so anything
here can be shared freely across threads.
"""

from .graph import (
    Graph,
    MixedStatus,
    SplitCert,
    VertexSet,
    WitnessMode,
    complete_graph,
    cycle_graph,
    empty_graph,
    find_mixed_witness,
    path_graph,
    split_certificate,
)
from .oracle import (
    H6Hit,
    PatternHit,
    PatternKind,
    find_induced,
    find_special_h6,
    first_forbidden,
    is_class_member,
)
from .modular import (
    HomogeneousSet,
    find_proper_homogeneous_set,
    quotient_factor,
    substitute,
)
from .skewpart import (
    AttachmentClasses,
    CaseTag,
    ConstructionFailed,
    NeitherCaseHolds,
    Side,
    SkewDecomposition,
    SkewPartition,
    UnclassifiableVertex,
    UsableCase,
    attachment_classes,
    classify_usable,
    decompose_skew,
    lemma_violations,
    maximize_skew,
    skew_from_special_h6,
)
from .divide import (
    ComposablePair,
    DivideInvalid,
    InvalidPair,
    PairRoles,
    SplitGraphDivide,
    build_divide,
    factor,
    unify,
    validate_divide,
)
from .decomposer import (
    CoSgu,
    DecompTree,
    InternalStructureError,
    MalformedTree,
    NotClassMember,
    PentagonLeaf,
    Sgu,
    SplitLeaf,
    Subst,
    decompose,
    recompose,
    tree_stats,
    verify_tree,
)
from .generator import GenConfig, GenerationExhausted, generate, random_composable_pair, random_split_graph
from .graph6 import Graph6Error, emit_graph6, parse_edge_list, parse_graph6
from .treedoc import TreeDocumentError, document_to_tree, tree_to_document

__version__ = "0.1.0"
