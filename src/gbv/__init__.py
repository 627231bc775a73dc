"""Generalized bounded variation via non-pathological submeasures.

A numpy-backed library for computing, exactly where the arithmetic allows:

* set values and hat-norms of non-pathological lower-semicontinuous
  submeasures on the positive integers (weighted sums, density bounds, unit,
  counting, and the permuted / shifted / max-with-unit wrappers), with an
  independent exact linear-programming oracle over the dominated-measure
  polytope;
* finite-horizon membership certificates for the induced sequence spaces
  (finite hat-norm, vanishing tail hat-norm, and their monotone cones);
* Jordan variation, the modulus of variation, and general weighted variation
  of piecewise-linear functions on [0, 1], with exact brute-force oracles,
  a fast greedy lower bound, and a modulus-based upper bound;
* finite-horizon order checkers (hat-norm domination on all or monotone
  sequences, the Katetov comparison of summable ideals, interval-set
  inclusion criteria) that return witnesses, and generators for the
  constructive separations between these spaces.
"""

from ._util import (
    DescriptorError,
    HorizonExceeded,
    HypothesisViolation,
    NonFiniteValue,
    SizeRefusal,
)
from .constructions import (
    CheckRecord,
    ConstructionCertificate,
    density_witness_monotone,
    density_witness_set,
    exh_minus_fin_sequence,
    permuted_equivalence_demo,
    separating_sequence,
    zigzag_from_sequence,
)
from .io import (
    load_function_csv,
    load_sequence,
    load_submeasure,
    save_function_csv,
    save_sequence,
    sequence_from_descriptor,
    submeasure_from_descriptor,
)
from .oracle import ORACLE_MAX_LEN, hat_norm_oracle
from .orders import (
    ComparisonReport,
    KatetovPartition,
    compare,
    ideal_criterion_c,
    katetov_partition_build,
    katetov_scan,
    preceq_density,
    preceq_m_summable,
    preceq_summable,
    tallness_hint,
)
from .sequence_spaces import (
    MembershipCertificate,
    characteristic_prefix,
    exh_certificate,
    fin_certificate,
    is_monotone,
    sorted_rearrangement,
)
from .submeasure import (
    CountingSubmeasure,
    DensityBound,
    DensitySubmeasure,
    MaxWithUnitSubmeasure,
    PermutedSubmeasure,
    SequencePrefix,
    ShiftedSubmeasure,
    Submeasure,
    SummableSubmeasure,
    UnitSubmeasure,
    WatermanWeights,
    counting,
    density,
    density_from_table,
    eval_set,
    harmonic_weights,
    hat_norm,
    identity_bound,
    log_bound,
    log_weights,
    max_with_unit,
    ones_weights,
    permuted,
    power_bound,
    power_weights,
    shift_normalize,
    sqrt_bound,
    summable,
    tail_norm,
    unit,
    weights_from_values,
)
from .variation import (
    BVNormResult,
    ModulusVector,
    PiecewiseLinearFunction,
    abv_norm,
    bv_norm,
    bv_norm_detail,
    jordan_variation,
    modulus_by_enumeration,
    modulus_of_variation,
    monotone_runs,
    oscillation,
    pl_add,
    pl_from_points,
    pl_scale,
    pl_shift,
    runs_saturate_modulus,
    tent,
    variation_bruteforce,
    variation_greedy,
    variation_upper_bound,
)

__version__ = "0.1.0"
