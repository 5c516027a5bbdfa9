"""Hyperparameters of the perturbation algorithm Γ.

Defaults follow Section 6 and Appendix E of the paper:

* every feature is retained or perturbed with probability 0.5,
* when an instruction is perturbed and deletion is allowed, it is deleted
  with probability 0.33 (Appendix E.2) and opcode-replaced otherwise,
* a data dependency is *explicitly* retained (never even considered for
  perturbation) with probability 0.1 (Appendix E.3),
* vertex perturbation replaces only the opcode (Appendix E.4); the
  whole-instruction scheme is available for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum


class ReplacementScheme(str, Enum):
    """How a vertex (instruction) is replaced when it is perturbed."""

    OPCODE_ONLY = "opcode"
    WHOLE_INSTRUCTION = "instruction"


@dataclass(frozen=True)
class PerturbationConfig:
    """Tunable knobs of Γ (see module docstring for the paper defaults)."""

    p_instruction_retain: float = 0.5
    p_dependency_retain: float = 0.5
    p_delete: float = 0.33
    p_dependency_explicit_retain: float = 0.1
    replacement_scheme: ReplacementScheme = ReplacementScheme.OPCODE_ONLY
    max_block_attempts: int = 4
    #: When true (the default) Γ uses the struct-of-arrays wave engine:
    #: batch-drawn coin rectangles, cached replacement/rename objects and
    #: targeted re-validation.  When false it runs the scalar reference
    #: implementation (the pre-batching engine), which the property tests
    #: and the ``REPRO_PERTURB_ENGINE=reference`` CI lane use as an oracle.
    vectorized: bool = True

    def __post_init__(self) -> None:
        for name in (
            "p_instruction_retain",
            "p_dependency_retain",
            "p_delete",
            "p_dependency_explicit_retain",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.max_block_attempts < 1:
            raise ValueError("max_block_attempts must be at least 1")

    @property
    def p_dependency_perturb_attempt(self) -> float:
        """Probability of attempting to break a non-explicitly-retained dependency.

        Chosen so that the *overall* retention probability of a dependency is
        ``p_dependency_retain`` when every perturbation attempt succeeds:
        ``retain = explicit + (1 - explicit) * (1 - attempt)``.
        """
        explicit = self.p_dependency_explicit_retain
        if explicit >= 1.0:
            return 0.0
        attempt = (1.0 - self.p_dependency_retain) / (1.0 - explicit)
        return min(max(attempt, 0.0), 1.0)

    def with_overrides(self, **changes) -> "PerturbationConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)
