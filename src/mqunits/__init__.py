"""Exact unit groups and 2-class numbers of small multiquadratic fields."""

from .classnum import (
    kuroda_h2,
    predict_structures,
    quadratic_h2,
)
from .errors import Falsified
from .field import (
    FieldBasis,
    FieldElement,
    parse_element,
    serialize_element,
    sqrt_in_field,
)
from .forms import ClassNumberReport, class_number_imaginary, class_number_real
from .quadratic import (
    ConditionClass,
    DecompositionWitness,
    QuadraticUnit,
    classify_pair,
    fundamental_unit,
    lemma_decompose,
)
from .report import PairReport, ScanSummary, report_emit, report_from_json, report_to_json, scan, verify_pair
from .units import (
    FsuResult,
    UnitExpr,
    azizi_extend,
    fsu_biquadratic,
    fsu_quadratic,
    norm_table,
    unit_index,
    wada_fsu,
)

__all__ = [
    "ClassNumberReport", "ConditionClass", "DecompositionWitness", "Falsified",
    "FieldBasis", "FieldElement", "FsuResult", "PairReport", "QuadraticUnit",
    "ScanSummary", "UnitExpr",
    "azizi_extend", "class_number_imaginary", "class_number_real", "classify_pair",
    "fsu_biquadratic", "fsu_quadratic", "fundamental_unit", "kuroda_h2", "lemma_decompose",
    "norm_table", "parse_element", "predict_structures", "quadratic_h2", "report_emit",
    "report_from_json", "report_to_json", "scan", "serialize_element", "sqrt_in_field",
    "unit_index", "verify_pair", "wada_fsu",
]
