"""Branched standard spines of 3-manifolds, encoded as edge-oriented ideal
triangulations: sliding-move calculus, twisted chain complexes over exact
coefficient fields, torsion invariants and the Euler-chain class.  Each
exported name is imported from its home module on first use (PEP 562)."""

import sys
import types
from importlib import import_module

_EXPORTS = {
    "census": "census_branched enumerate_triangulations",
    "complexes": "CellComplexX GroupData Representation SpiderAnchors "
                 "TwistedComplex make_representation",
    "errors": "BasisRankMismatch CyclicTriangle Disconnected MoveError "
              "NonOrientable NotAcyclicNoBasis NotApplicable "
              "RelatorNotKilled SelfAdjacentFace SpineError "
              "SpineSyntaxError Stuck TorsionError TransportFailure "
              "UnpairedFace ValidationError",
    "euler": "EulerData euler_chain_class euler_data maw_cochain "
             "path_choice_independence pd_consistency",
    "moves": "HCycleReport MoveInstance apply_negative apply_positive "
             "available_moves h_cycle_check is_rigid positive_move random_walk "
             "transport_homology transport_rational_homology "
             "transport_representation",
    "spine": "BranchedSpine enumerate_branchings",
    "spinefile": "parse parse_move_log replay_move_log serialize "
                 "serialize_move_log",
    "torsion": "TorsionValue auto_twisted_homology invariance_suite "
               "sign_refined_torsion torsion",
    "triangulation": "Triangulation",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # Never cached, so a function patched or unpatched at home is seen here.
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    home = __name__ + "." + _HOME[name]
    return getattr(sys.modules.get(home) or import_module(home), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading submodule ``torsion`` must not shadow the exported function.
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
