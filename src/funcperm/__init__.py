"""Exact permutation tests for equality of distributions of functional data.

Compares the stochastic processes behind two or more groups of discretely
observed sample paths.  The headline test combines a Cramer-von Mises-type
distance between group empirical CDFs, evaluated at random functions drawn
from a user-specified measure, with a mean-path comparison; each component
is calibrated by group-relabeling permutations, so the finite-sample size
is exact.  A Monte Carlo power-study engine, an energy-distance
comparator, and closed-form local-power oracles round out the package.
"""

from .local_power import (
    PowerCurve,
    correlation_comparison_power,
    cvm_power_correlation_shift,
    cvm_power_mean_shift,
    cvm_power_variance_shift,
    mean_comparison_power,
    mean_shift_ncp_coefficient,
    null_variance,
    shift_curve,
    variance_comparison_power,
)
from .measure import (
    COEFF_LAWS,
    MeasureDraws,
    MeasureSpec,
    basis_matrix,
    draw_coefficients,
    draw_functions,
    expand_coefficients,
    median_peak,
    trig_basis,
)
from .permutation import (
    DECISION_MODES,
    CombinedResult,
    PermutationDistribution,
    PermutationPlan,
    TestResult,
    combine_tests,
    combined_p_value,
    critical_value,
    decide,
    make_plans,
    number_of_assignments,
    p_value,
    permutation_distributions,
    run_combined_test,
    sampled_plan_matrix,
)
from .rng import substream
from .samples import (
    FunctionalSample,
    SampleFormatError,
    TimeGrid,
    load_samples,
    pooled_by_group,
    serialize_samples,
    split_by_group,
)
from .simulate import (
    CORR_SHIFT,
    DESIGN_IDS,
    MEAN_SHIFT,
    SD_SHIFT,
    DesignSpec,
    GroupParams,
    PowerRow,
    PowerTable,
    StudyConfig,
    apply_design,
    design_paths,
    run_power_study,
    run_replication,
    simulate_paths,
    synthetic_baseline,
)
from .special import (
    chisq_cdf,
    chisq_quantile,
    noncentral_chisq_cdf,
    noncentral_chisq_sf,
    normal_cdf,
    normal_pdf,
)
from .stats import (
    cvm_statistic,
    cvm_statistic_multi,
    ecdf_indicator,
    energy_statistic,
    indicator_matrix,
    mean_path_statistic,
    mean_path_statistic_multi,
    pairwise_distances,
    permutation_statistics,
)

__version__ = "0.1.0"
