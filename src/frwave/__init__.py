"""Fractional Fourier transforms and fractional biorthogonal wavelet analysis."""

from .errors import (
    DegenerateAngle,
    EmptyBattery,
    FrwaveError,
    GridCoverage,
    InputError,
    NonConvergent,
    NotRealProfile,
    RieszLowerBoundZero,
    SupportTooSmall,
    TailTooFat,
)
from .grids import (
    Angle,
    SampledSignal,
    SpectrumSamples,
    as_angle,
    box_signal,
    read_signal_csv,
    read_spectrum_csv,
    resample,
    sample_at,
    write_signal_csv,
    write_spectrum_csv,
)
from .frft import (
    FrFTPlan,
    chirp_modulate,
    frft,
    frft_eval,
    inverse_frft,
    kernel_constant,
    parseval_defect,
    spectrum_on_grid,
)
from .wavelets import (
    ContinuousAtomParams,
    MotherWavelet,
    admissibility_constant,
    admissibility_refinement,
    atom_continuous,
    battery,
    frwt_continuous,
    make_mother,
)
from .riesz import (
    PeriodicProfile,
    RieszBounds,
    biortho_profile,
    check_biorthogonal,
    dual_scaling,
    periodization_gram,
    riesz_bounds,
    translate_gram,
)
from .mra import (
    LevelAtoms,
    MRALevel,
    ScalingFilter,
    auxiliary_function,
    level_atom,
    level_atoms,
    project,
    projection_residual_curve,
    refine_cascade,
    scaling_filter,
    two_scale_apply,
    two_scale_defect,
)
from .banks import (
    cdf53_system,
    cdf53_taps,
    fractional_taps,
    haar_system,
    haar_taps,
    hat_signal,
    spectral_scaling,
    spectral_scaling_from_filter,
)
from .biortho import (
    BiorthoWaveletPair,
    RieszBoundsPair,
    WaveletFilterBank,
    cross_level_orthogonality,
    cross_orthogonality_check,
    decay_check,
    expand_reconstruct,
    highpass_from_lowpass,
    level_split_defect,
    load_bank,
    make_bank,
    matrix_condition_defect,
    riesz_frame_bounds,
    save_bank,
    wavelet_biortho_check,
    wavelet_synthesize,
)
from .report import AnalysisReport, RunConfig, Verdict, dumps_deterministic

__version__ = "0.1.0"
