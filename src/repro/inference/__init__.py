"""View DTD inference -- the paper's primary contribution.

Components, by paper section:

* :func:`refine` -- type refinement with the ``(+)``/``||`` operators
  (Section 4.1, Definitions 4.1/4.2).
* :func:`tighten` -- Algorithm Tighten: specialized types for every
  condition node plus the valid/satisfiable/unsatisfiable side effect
  (Section 4.2).
* :func:`collapse_equivalent` -- systematic folding of equivalent
  specializations (footnote 8).
* :func:`merge_sdtd` -- Algorithm Merge: s-DTD to plain DTD with
  non-tightness signals (Section 4.3).
* :func:`infer_list_type` -- result-list type inference (Section 4.4,
  Appendix B) in EXACT and PAPER modes.
* :func:`infer_view_dtd` -- the end-to-end View DTD Inference module.
* :func:`naive_view_dtd` -- the Example 3.1 baseline.
* :mod:`repro.inference.quality` -- empirical soundness and tightness.
"""

from .classify import Classification, InferenceMode, anchored_classification
from .collapse import collapse_equivalent, collapse_result, compute_equivalence
from .construct import ConstructInferenceResult, infer_construct_view_dtd
from .listtype import infer_list_type
from .merge import MergeResult, merge_sdtd
from .naive import naive_view_dtd
from .pipeline import InferenceResult, infer_view_dtd
from .quality import (
    LoosenessRow,
    SoundnessReport,
    StructuralTightnessProbe,
    check_soundness,
    looseness_report,
    structural_tightness_probe,
)
from .refine import RefineTrace, refine, refine_sequence
from .smallscope import (
    SmallScopeReport,
    enumerate_documents,
    enumerate_elements,
    enumerate_sdtd_elements,
    small_scope_analysis,
)
from .simplifytype import simplify_list_type, simplify_type
from .tighten import NodeTyping, TightenResult, tighten
from .union import (
    UnionBranch,
    UnionInferenceResult,
    evaluate_union,
    infer_union_view_dtd,
)

__all__ = [
    "Classification",
    "ConstructInferenceResult",
    "InferenceMode",
    "InferenceResult",
    "LoosenessRow",
    "MergeResult",
    "NodeTyping",
    "RefineTrace",
    "SmallScopeReport",
    "SoundnessReport",
    "StructuralTightnessProbe",
    "TightenResult",
    "UnionBranch",
    "UnionInferenceResult",
    "anchored_classification",
    "check_soundness",
    "evaluate_union",
    "collapse_equivalent",
    "enumerate_documents",
    "enumerate_elements",
    "enumerate_sdtd_elements",
    "collapse_result",
    "compute_equivalence",
    "infer_construct_view_dtd",
    "infer_list_type",
    "infer_union_view_dtd",
    "infer_view_dtd",
    "looseness_report",
    "merge_sdtd",
    "naive_view_dtd",
    "refine",
    "refine_sequence",
    "simplify_list_type",
    "simplify_type",
    "small_scope_analysis",
    "structural_tightness_probe",
    "tighten",
]
