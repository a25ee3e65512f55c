"""Split-inference runtime and desk-scale simulator for seismic FWI."""

from .errors import (
    ConfigError,
    CorruptFileError,
    EmptySupportError,
    InputValidationError,
    PartitionError,
    ProtocolError,
    ReportError,
    ShapeError,
    SplitFwiError,
    StabilityError,
    ZeroEnergyError,
)
from .metrics import SsimParams, loss_mae_mse, ssim
from .model import (
    LatentSet,
    LatentVector,
    ModelConfig,
    ModelWeights,
    VelocityMap,
    cross_attention,
    decode,
    decode_without_attention,
    encode,
    forward_full,
    fuse,
    init_weights,
    load_weights,
    save_weights,
)
from .netem import (
    FOUR_G,
    CommReduction,
    EnergyModel,
    Frame,
    FrameKind,
    NetworkProfile,
    TransmitResult,
    comm_reduction_report,
    frame_decode,
    frame_encode,
    transmit,
    transmit_group,
)
from .physics import (
    AcquisitionGeometry,
    EnergyDistribution,
    VelocityModel,
    WaveformRecord,
    default_geometry,
    differential_waveform,
    energy_distribution,
    generate_dataset,
    load_dataset,
    save_dataset,
    simulate,
)
from .reporting import BenchmarkSpec, run_benchmark, write_per_sample_csv, write_summary_csv
from .runtime import (
    ComputeModel,
    HashBuffer,
    InfraConfig,
    InsertOutcome,
    PipelineMode,
    RunReport,
    SampleResult,
    partition_receivers,
    profile_decoder,
    random_drop_sets,
    run_baseline,
    run_epic,
    run_robustness_sweep,
)

__version__ = "0.1.0"
