"""Graph signal processing toolkit.

Spectral-shift construction, graph impulses, polynomial filtering and
convolution dualities, and exact bandlimited sampling/recovery in both the
vertex and graph frequency domains, for arbitrary directed graphs.
"""

from .errors import (
    BadSizeError,
    DimensionMismatchError,
    DomainMismatchError,
    GsptkError,
    InfeasibleError,
    NonFiniteError,
    NotBandlimitedError,
    NotConvergedError,
    NotDivisibleError,
    ParseError,
    ReconstructionMismatchError,
    RepeatedEigenvaluesError,
    SingularMatrixError,
    SizeMismatchError,
    ZeroScaleError,
)
from .graphs import (
    Domain,
    Graph,
    GraphKind,
    GraphSignal,
    build,
    read_graph,
    read_signal,
    write_graph,
    write_signal,
)
from .spectral import (
    SpectralBasis,
    basis_explicit,
    basis_from_graph,
    bundled_basis,
    gft_apply,
    load_basis,
    rescale_basis,
    save_basis,
    spectral_shift,
    spectral_shift_variant,
    structural_equal,
)
from .impulses import AssumptionReport, ImpulseFamily, ImpulseKind, check_assumptions, impulse_family, vandermonde
from .filters import (
    FitMethod,
    PolynomialFilter,
    apply_filter,
    convolve,
    fit_filter,
    matrix_from_response,
    modulate,
    response,
)
from .sampling import (
    BandSpec,
    SamplingPlan,
    band_project,
    plan_equivalent,
    read_plan,
    recovery_block,
    sample,
    sampling_operator,
    spectral_plan,
    spectral_recover,
    upsample,
    vertex_plan,
    vertex_recover,
    write_plan,
)
from .dspcompat import (
    ReplicationReport,
    circulant_convolve,
    dft_basis,
    dsp_sampling_operator,
    nyquist_recover,
    replication_compare,
)

__version__ = "0.1.0"
