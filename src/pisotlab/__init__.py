"""Exact iterate tables, congruence scans, and limit-point construction
for Pisot numbers.

The package certifies that a monic integer polynomial has Pisot geometry,
computes iterates of the map x -> theta^n (x - [x]) exactly in Z[theta]
(with [.] the certified nearest integer), and studies the integer parts
u^k_n those iterates produce: prime-indexed residue branches, eventual
constants, linear recurrences, coefficient symmetry, and certified
magnitude decay.  A second half constructs new Pisot numbers as roots of
logarithmic equations and certifies residuals, orderings, and the
generalized residue pattern of the resulting fields.
"""

from .catalog import Catalog, CatalogEntry, load_catalog
from .certify import PisotCertificate, Verdict, certify_pisot, refine_root
from .conjectures import (
    BranchVerdict,
    CongruenceReport,
    ConstantVerdict,
    ConvergenceReport,
    ExpectationSet,
    LevelExpectation,
    SuiteReport,
    alpha_expectations,
    beta_expectations,
    centered_residue,
    congruence_scan,
    constant_detect,
    convergence_check,
    heart_expectations,
    run_suite,
)
from .errors import (
    CatalogError,
    InvalidParameters,
    NoRecurrenceFound,
    NoRootInInterval,
    NotPisot,
    PisotLabError,
    PrecisionExhausted,
    RecurrenceUnavailable,
    ResidualTooLarge,
)
from .field import NumberField
from .intervals import RatInterval
from .limits import (
    LimitPointSolution,
    LogEquationSpec,
    OrderingReport,
    ordering_check,
    solve_log_equation,
    verify_identity,
)
from .poly import (
    IntPolynomial,
    PairRelation,
    SymmetryClass,
    alpha_poly,
    beta_poly,
    classify_pair,
    classify_symmetry,
    strip_unit_root,
)
from .recurrence import (
    Recurrence,
    characteristic_of,
    compare_recurrence,
    detect_recurrence,
    modular_extend,
    predicted_recurrence,
)
from .transform import IterateCell, IterateTable, build_table, frac_magnitudes

__version__ = "0.1.0"
