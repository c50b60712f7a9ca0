"""Exact enumeration and identity checking for barely set-valued tableaux,
reverse plane partitions, and 0-Hecke word polynomials."""

from .exactmath import IntPolynomial, Rational, binomial
from .shapes import (
    Cell,
    LatticePath,
    NotBalancedError,
    Partition,
    all_subshapes,
    corners,
    is_balanced,
    lattice_path,
    outside_corners,
    proper_outside_corners,
    rect_staircase,
    subshape_contained,
)
from .tableaux import (
    ReversePlanePartition,
    SetValuedTableau,
    classify,
    count_bssyt,
    count_rpp,
    count_ssyt,
    enumerate_bssyt,
    enumerate_rpp,
    enumerate_ssyt,
    induced_subshape,
    rpp_to_ssyt,
    ssyt_to_rpp,
)
from .bijections import (
    CornerTriple,
    OutsideTriple,
    bssyt_to_corner,
    bssyt_to_outside,
    corner_to_bssyt,
    outside_to_bssyt,
    verify_roundtrip,
)
from .reports import VerificationReport
from .jaggedness import (
    check_toggle_symmetric,
    expected_jaggedness_weak,
    verify_balanced_expectation,
    verify_conjecture_rect,
    verify_count_identity,
    verify_double_sums,
    verify_ensemble_size,
    verify_weak_expectation_by_subshape,
    weak_distribution,
    weak_histogram,
    weak_probability,
)
from .hecke import (
    demazure_step,
    dominant_from_partition,
    fk_polynomial,
    hecke_product,
    is_dominant,
    lehmer_code,
    length,
    verify_fk_bssyt_relation,
    verify_fk_longest,
    verify_fk_ratio,
)

__version__ = "0.1.0"
