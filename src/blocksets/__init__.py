"""Finite projective and affine geometry over GF(q), hyperplane
arrangement complements, and exact decisions about their blocking sets."""

__version__ = "0.1.0"

from .arrangement import (Arrangement, ComplementSet, arrangement_make,
                          complement, corresponding_arrangement,
                          emit_arrangement_text, flats_in_complement,
                          max_flat_dimension, normalize_form,
                          parse_arrangement_text, touching_traces)
from .blocking import (BlockingInstance, ClassificationResult, ScanReport,
                       ScanRow, SubspaceCertificate, build_instance,
                       classify_arrangement, exhaustive_oracle,
                       guaranteed_existence_check, induced_subinstance,
                       is_blocking, is_minimal, is_nontrivial,
                       min_blocking_set, minimalize, nonexistence_by_subspace,
                       solve_instance, threshold_scan)
from .braid import (BraidOutcome, braid_arrangement, braid_existence,
                    braid_lines, braid_transversal, escape_parameter)
from .errors import BlocksetsError, SearchTimeout
from .geometry import (AFFINE, PROJECTIVE, Flat, Space, enumerate_flats,
                       flat_count, flat_size, gaussian_binomial, iter_flats,
                       span, space)
from .gf import FieldSpec, field_make
from .solver import SearchResult
