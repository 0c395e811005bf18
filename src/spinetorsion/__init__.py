"""Branched standard spines of 3-manifolds, encoded as edge-oriented ideal
triangulations: sliding-move calculus, twisted chain complexes over exact
coefficient fields, torsion invariants and the Euler-chain class."""

from .census import census_branched, enumerate_triangulations
from .complexes import (CellComplexX, GroupData, Representation,
                        SpiderAnchors, TwistedComplex, make_representation)
from .errors import (BasisRankMismatch, CyclicTriangle, Disconnected,
                     MoveError, NonOrientable, NonStandardDual,
                     NotAcyclicNoBasis, NotApplicable, RelatorNotKilled,
                     ResultNonStandard, SelfAdjacentFace, SpineError,
                     SpineSyntaxError, Stuck, TorsionError, TransportFailure,
                     UnpairedFace, ValidationError)
from .euler import (EulerData, euler_chain_class, euler_data, maw_cochain,
                    path_choice_independence, pd_consistency)
from .moves import (HCycleReport, MoveInstance, apply_negative, apply_positive,
                    available_moves, h_cycle_check, is_rigid, positive_move,
                    random_walk, transport_homology,
                    transport_rational_homology, transport_representation)
from .spine import BranchedSpine, enumerate_branchings
from .spinefile import (parse, parse_move_log, replay_move_log, serialize,
                        serialize_move_log)
from .torsion import (TorsionValue, auto_twisted_homology, default_z_character,
                      fox_alexander, invariance_suite, sign_refined_torsion,
                      torsion, twisted_h1_order)
from .triangulation import Triangulation

__version__ = "0.1.0"
