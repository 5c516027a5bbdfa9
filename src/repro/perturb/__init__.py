"""Basic-block perturbation algorithm Γ (Section 5.2 / Appendix C of the paper)."""

from repro.perturb.config import PerturbationConfig, ReplacementScheme
from repro.perturb.replacements import (
    opcode_replacements,
    register_renaming_candidates,
    random_register_rename,
    random_immediate,
)
from repro.perturb.algorithm import BlockPerturber, PreservationConstraints
from repro.perturb.batch import (
    EncodedRow,
    EncodedTally,
    PerturbationBatch,
    encoded_tally,
    thread_encoded_tally,
)
from repro.perturb.sampler import PerturbationSampler
from repro.perturb.space import estimate_space_size, per_instruction_choices

__all__ = [
    "PerturbationConfig",
    "ReplacementScheme",
    "opcode_replacements",
    "register_renaming_candidates",
    "random_register_rename",
    "random_immediate",
    "BlockPerturber",
    "PreservationConstraints",
    "PerturbationSampler",
    "EncodedRow",
    "EncodedTally",
    "PerturbationBatch",
    "encoded_tally",
    "thread_encoded_tally",
    "estimate_space_size",
    "per_instruction_choices",
]
