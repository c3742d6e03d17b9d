"""Exact computer algebra for rank-bounded depth-4 circuits.

Sparse exact polynomials (poly), the circuit model and both JSON file formats
(circuit), algebraic-rank certificates and functional dependence (algdep),
the projected shifted partial-derivatives measure (measure), design-based
hard polynomial families with random restrictions (nw), and hitting-set
identity testing (pit), behind one CLI (cli).
"""

from .algdep import (Annihilator, DependenceWitness, RankCertificate,
                     TranslationSampler, algebraic_rank, find_annihilator,
                     jacobian, newton_reconstruct, reconstruct_dependence,
                     rewrite_circuit, sample_good_translation)
from .circuit import (Circuit, DeclaredBounds, Gate, OuterExpr, circuit_size,
                      evaluate_circuit, expand, homogeneous_component_circuit,
                      parse, parse_file, parse_polys, serialize)
from .domains import PrimeField, Rationals, domain_from_json, is_prime
from .measure import (MeasureReport, MeasureSpec, circuit_measure_bound,
                      composition_upper_bound, psp_dimension)
from .nw import (HardPolyParams, NWInstantiation, NWParams, RestrictionSample,
                 extract_nw_projection, hard_polynomial, instantiate_parameters,
                 nw_polynomial, restrict, sample_restriction,
                 survival_experiment)
from .pit import (HittingSet, PitReport, SupportBound, SZVerdict, hitting_set,
                  hitting_set_size, pit_test, schwartz_zippel_test,
                  support_bound)
from .poly import Polynomial, compose

__version__ = "0.1.0"
