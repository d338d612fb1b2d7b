"""repro.baselines — the comparison schemes of the paper's §4/§5.

* :mod:`repro.baselines.pdm` — pseudo distance matrix uniformization
  (Yu & D'Hollander, ICPP'00), the scheme REC is positioned against;
* :mod:`repro.baselines.pl` — partitioning & labeling / direction-vector
  uniformization (D'Hollander '92, Wolf & Lam '91);
* :mod:`repro.baselines.unique_sets` — unique-sets oriented partitioning
  (Ju & Chaudhary '97);
* :mod:`repro.baselines.doacross` — BDV-synchronized DOACROSS execution
  (Tzen & Ni '93, Chen & Yew '96);
* :mod:`repro.baselines.tiling` — minimum-distance tiling (Punyamurtula et al. '99);
* :mod:`repro.baselines.innerpar` — inner-loop parallelization ("PAR");
* :mod:`repro.baselines.lattice` — the shared distance-lattice machinery.

Every scheme produces a :class:`~repro.core.schedule.Schedule`, so the same
validators, simulator and benchmarks apply to all of them.
"""

from .doacross import basic_dependence_vectors, doacross_schedule
from .innerpar import inner_parallel_schedule
from .lattice import DistanceLattice, direction_basis, pseudo_distance_matrix
from .pdm import PDMPartition, pdm_partition, pdm_schedule
from .pl import PLPartition, pl_partition, pl_schedule
from .tiling import minimum_distances, tiling_schedule
from .unique_sets import UniqueSets, unique_sets_partition, unique_sets_schedule

__all__ = [
    "pdm_schedule",
    "pdm_partition",
    "PDMPartition",
    "pl_schedule",
    "pl_partition",
    "PLPartition",
    "unique_sets_schedule",
    "unique_sets_partition",
    "UniqueSets",
    "doacross_schedule",
    "basic_dependence_vectors",
    "tiling_schedule",
    "minimum_distances",
    "inner_parallel_schedule",
    "DistanceLattice",
    "pseudo_distance_matrix",
    "direction_basis",
]
