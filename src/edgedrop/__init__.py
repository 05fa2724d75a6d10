"""Verification workbench for removing edges from network coding codes.

Everything here is exhaustive and certificate-producing: codes are explicit
tables, error fractions are exact rationals, and every removal result is
re-verified on the restricted instance before it is returned.
"""

from .codes import (
    FeasibilityReport,
    GlobalCodeTable,
    NetworkCode,
    build_global_table,
    check_feasibility,
    joint_counts,
    joint_entropy,
    load_code,
    relay_instance,
    save_code,
    tabulate,
)
from .cwl import (
    BalancedRelabeling,
    CwlWitness,
    PiecewiseCwl,
    SearchBudget,
    abelian_structures,
    certify_cwl,
    characterize_witness,
    check_cwl,
    check_piecewise,
    classes_equal_sized,
    coordinate_classes,
    cwl_remove,
    cwl_search,
    derive_edge_group,
    piecewise_remove,
    relabel_balanced,
    witness_partition,
)
from .errors import (
    DomainError,
    InternalCheckError,
    MalformedCodeError,
    PreconditionError,
    ResourceError,
    WorkbenchError,
)
from .groupcodes import (
    GroupCharacterization,
    abelian_removal_plan,
    best_decoder_error,
    independent_sources,
    induced_entropy,
    load_characterization,
    materialize,
    normalized_sources,
    zero_error_upgrade,
)
from .groups import (
    CyclicGroup,
    FiniteGroup,
    ProductGroup,
    SubgroupHandle,
    TableGroup,
    coset_labels,
    cosets,
    direct_product,
    generated_subgroup,
    group_from_description,
    is_homomorphism,
    kernel,
    make_cyclic,
    subgroup,
    subgroup_product,
)
from .library import (
    DoughertyReport,
    N2Report,
    N3Report,
    PermutationFamily,
    butterfly,
    butterfly4,
    dougherty_identity_check,
    n2_code_check,
    n2_permutations,
    n3_injectivity,
    n3_permutations,
)
from .network import (
    Edge,
    NetworkInstance,
    Source,
    load_instance,
    remove_edge,
    save_instance,
    topological_order,
    validate_instance,
)
from .removal import (
    RemovalCertificate,
    RemovalResult,
    SourcePartition,
    fiber_edge_values,
    fibers_are_products,
    find_witness,
    product_set_witness,
    remove_by_edge_value,
    restrict_code,
    restrict_to_product,
)

__version__ = "0.1.0"
