"""Simulated DNA storage for grayscale images with error-containment barriers.

The package encodes JPEG-style compressed images into pools of short DNA
strands, injects synthesis/sequencing errors, decodes the damaged pool, and
measures robustness (SSIM) against storage cost (bits per nucleotide).
"""

from .barriers import BarrierConfig
from .channel import (
    ChannelConfig,
    load_channel_config,
    parse_channel_config,
    perturb_pool,
)
from .corpus import CORPUS_SEED, build_corpus, corpus_image
from .formats import (
    FormatError,
    MappingTable,
    StreamMap,
    read_mapping,
    read_metadata,
    read_pool,
    write_mapping,
    write_metadata,
    write_pool,
)
from .jpeg import ImageMetadata, forward_transform, inverse_transform, quality_scaled_table
from .metrics import barrier_overhead, ci90_half_width, encoding_density, ssim, write_csv
from .pgm import PgmError, read_pgm, write_pgm
from .pipeline import (
    DEFAULT_RATES,
    SCHEME_IMG_DNA,
    SCHEME_NO_BARRIER,
    SCHEME_RAW_DNA,
    SCHEMES,
    ContainmentStats,
    DecodeResult,
    EncodedImage,
    ExperimentConfig,
    PipelineError,
    decode_pool,
    decode_pools,
    encode_image,
    reference_image,
    run_coefficient_isolation,
    run_containment,
    run_pipeline,
    run_sweep,
)
from .rotation import rotate_decode, rotate_encode, seq_to_string, string_to_seq
from .strands import (
    MAX_HOMOPOLYMER,
    MAX_STRAND_LEN,
    ConstraintReport,
    StrandGeometry,
    validate_constraints,
)
from .ternary import AVG_BITS_PER_TRIT, CODE_LENGTHS, bytes_to_trits, trits_to_segments

__version__ = "0.1.0"

__all__ = [
    "AVG_BITS_PER_TRIT",
    "BarrierConfig",
    "CODE_LENGTHS",
    "CORPUS_SEED",
    "ChannelConfig",
    "ConstraintReport",
    "ContainmentStats",
    "DEFAULT_RATES",
    "DecodeResult",
    "EncodedImage",
    "ExperimentConfig",
    "FormatError",
    "ImageMetadata",
    "MappingTable",
    "MAX_HOMOPOLYMER",
    "MAX_STRAND_LEN",
    "PgmError",
    "PipelineError",
    "SCHEME_IMG_DNA",
    "SCHEME_NO_BARRIER",
    "SCHEME_RAW_DNA",
    "SCHEMES",
    "StrandGeometry",
    "StreamMap",
    "barrier_overhead",
    "build_corpus",
    "bytes_to_trits",
    "ci90_half_width",
    "corpus_image",
    "decode_pool",
    "decode_pools",
    "encode_image",
    "encoding_density",
    "forward_transform",
    "inverse_transform",
    "load_channel_config",
    "parse_channel_config",
    "perturb_pool",
    "quality_scaled_table",
    "read_mapping",
    "read_metadata",
    "read_pgm",
    "read_pool",
    "reference_image",
    "rotate_decode",
    "rotate_encode",
    "run_coefficient_isolation",
    "run_containment",
    "run_pipeline",
    "run_sweep",
    "seq_to_string",
    "ssim",
    "string_to_seq",
    "trits_to_segments",
    "validate_constraints",
    "write_csv",
    "write_mapping",
    "write_metadata",
    "write_pgm",
    "write_pool",
]
