"""repro — batch shortest-path processing in road networks.

A complete reproduction of *Fast Query Decomposition for Batch Shortest
Path Processing in Road Networks* (Li, Zhang, Hua, Zhou — ICDE 2020):
three query-decomposition methods (Zigzag, Search-Space Estimation,
Coherence-Aware Co-Clustering), two batch answering algorithms (Local
Cache, error-bounded Region-to-Region), every baseline the paper compares
against, and the full experiment harness for its tables and figures.

Quickstart::

    from repro import beijing_like, WorkloadGenerator, BatchProcessor

    graph = beijing_like("small")
    batch = WorkloadGenerator(graph).batch(200)
    report = BatchProcessor(graph).process(batch, method="slc-s")
    print(report.summary())
"""

from .baselines import (
    GlobalCacheAnswerer,
    GroupAnswerer,
    KPathAnswerer,
    OneByOneAnswerer,
    ZigzagPetalAnswerer,
)
from .core import (
    BatchAnswer,
    BatchProcessor,
    CoClusteringDecomposer,
    Decomposition,
    DynamicBatchSession,
    LocalCacheAnswerer,
    METHODS,
    PathCache,
    QueryCluster,
    RegionToRegionAnswerer,
    SearchSpaceDecomposer,
    SearchSpaceOracle,
    ZigzagDecomposer,
)
from .exceptions import (
    CacheError,
    ConfigurationError,
    DecompositionError,
    GraphError,
    IndexConstructionError,
    NoPathError,
    QueryError,
    ReproError,
    StaleIndexError,
)
from .index import (
    ArcFlags,
    ContractionHierarchy,
    CustomizableContractionHierarchy,
    PrunedLandmarkLabeling,
)
from .obs import (
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
    SpanTracer,
    get_registry,
    set_registry,
    to_prometheus_text,
    use_registry,
)
from .network import (
    GridIndex,
    RoadNetwork,
    SuperVertexMap,
    TrafficTimeline,
    beijing_like,
    grid_city,
    random_geometric_city,
    ring_radial_city,
)
from .queries import (
    Hotspot,
    PoissonArrivals,
    Query,
    QuerySet,
    TrajectorySimulator,
    WorkloadGenerator,
    profile_workload,
    queries_from_trips,
    window_batches,
)
from .parallel import ExecutionReport, ParallelBatchEngine, ParallelOutcome
from .service import BatchQueryService, ServiceReport, WindowReport
from .streaming import (
    AdmissionController,
    MicroBatcher,
    MicroWindow,
    MonotonicClock,
    SimulatedClock,
    StreamReport,
    StreamingQueryService,
    assemble_micro_batches,
    make_clock,
)
from .search import (
    LandmarkIndex,
    PathResult,
    a_star,
    bidirectional_dijkstra,
    dijkstra,
    generalized_a_star,
)

__version__ = "1.0.0"

__all__ = [
    "ArcFlags",
    "BatchAnswer",
    "BatchProcessor",
    "BatchQueryService",
    "CacheError",
    "CoClusteringDecomposer",
    "ConfigurationError",
    "ContractionHierarchy",
    "CustomizableContractionHierarchy",
    "Decomposition",
    "DecompositionError",
    "DynamicBatchSession",
    "GlobalCacheAnswerer",
    "GraphError",
    "GridIndex",
    "GroupAnswerer",
    "Hotspot",
    "IndexConstructionError",
    "KPathAnswerer",
    "LandmarkIndex",
    "LocalCacheAnswerer",
    "METHODS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NoPathError",
    "NullRegistry",
    "OneByOneAnswerer",
    "PathCache",
    "PoissonArrivals",
    "PathResult",
    "ExecutionReport",
    "ParallelBatchEngine",
    "ParallelOutcome",
    "PrunedLandmarkLabeling",
    "Query",
    "QueryCluster",
    "QueryError",
    "QuerySet",
    "RegionToRegionAnswerer",
    "ReproError",
    "RoadNetwork",
    "StaleIndexError",
    "AdmissionController",
    "MicroBatcher",
    "MicroWindow",
    "MonotonicClock",
    "SimulatedClock",
    "StreamReport",
    "StreamingQueryService",
    "assemble_micro_batches",
    "make_clock",
    "SearchSpaceDecomposer",
    "SearchSpaceOracle",
    "ServiceReport",
    "SpanTracer",
    "SuperVertexMap",
    "TrafficTimeline",
    "TrajectorySimulator",
    "WindowReport",
    "WorkloadGenerator",
    "ZigzagDecomposer",
    "ZigzagPetalAnswerer",
    "a_star",
    "beijing_like",
    "bidirectional_dijkstra",
    "dijkstra",
    "generalized_a_star",
    "get_registry",
    "profile_workload",
    "queries_from_trips",
    "grid_city",
    "random_geometric_city",
    "ring_radial_city",
    "set_registry",
    "to_prometheus_text",
    "use_registry",
    "window_batches",
    "__version__",
]
