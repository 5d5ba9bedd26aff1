"""trajkit: trajectory distances, distance matrices, and clustering.

Nine pairwise distances over 2-D trajectories (warping, edit, and shape
families plus the segment-path distance), parallel distance-matrix
computation with binary persistence, agglomerative and affinity-propagation
clustering on precomputed matrices, and exemplar-based cluster criteria.
"""

from .clustering import (APResult, ClusterAssignment, CriteriaResult, Dendrogram,
                         MergeStep, affinity_propagation, criteria, cut, exemplar, hca)
from .dataset import (BundleSpec, IngestError, TrajectoryDataset, ingest,
                      load_dataset, save_dataset, synth)
from .geometry import Trajectory, project_wgs84
from .matrix import (DISTANCE_NAMES, DistanceMatrix, DistanceSpec,
                     MatrixComputationError, MatrixFormatError, compute_matrix,
                     load_matrix, save_matrix, save_matrix_csv)
from .shape import (discrete_frechet, frechet, frechet_candidates,
                    frechet_feasible, hausdorff, owd, sowd)
from .sspd import spd, sspd
from .warping import dlcss, dtw, edr, erp, lcss

__version__ = "0.1.0"

__all__ = [
    "APResult",
    "BundleSpec",
    "ClusterAssignment",
    "CriteriaResult",
    "Dendrogram",
    "DISTANCE_NAMES",
    "DistanceMatrix",
    "DistanceSpec",
    "IngestError",
    "MatrixComputationError",
    "MatrixFormatError",
    "MergeStep",
    "Trajectory",
    "TrajectoryDataset",
    "affinity_propagation",
    "compute_matrix",
    "criteria",
    "cut",
    "discrete_frechet",
    "dlcss",
    "dtw",
    "edr",
    "erp",
    "exemplar",
    "frechet",
    "frechet_candidates",
    "frechet_feasible",
    "hausdorff",
    "hca",
    "ingest",
    "lcss",
    "load_dataset",
    "load_matrix",
    "owd",
    "project_wgs84",
    "save_dataset",
    "save_matrix",
    "save_matrix_csv",
    "sowd",
    "spd",
    "sspd",
    "synth",
]
