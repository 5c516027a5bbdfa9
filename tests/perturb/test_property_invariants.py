"""Property-based invariants of the perturbation layer, across both engines.

Γ exists twice: the struct-of-arrays wave engine the explanation pipeline
runs (``engine="soa"``) and the scalar reference engine
(``engine="reference"``, also reachable as
``PerturbationConfig(vectorized=False)``) kept as oracle.  This suite pins
the contract between them over *generated* blocks, feature sets and
probability configurations:

* every perturbed block from every engine is valid x86 with ≥ 1 instruction,
* every feature requested to be preserved is present in every perturbation,
  from every engine — including the memory-dependency case where breaking a
  *register* dependency must not rename a base/index register through a
  preserved memory operand (a real bug this suite's generators caught),
* under degenerate probabilities (every coin 0 or 1, where no engine
  consumes random state for flips — the ``coin``/``_flip_rows`` contract)
  both engines are bit-for-bit identical, perturbation by perturbation,
* the identity configuration (retain everything, attempt nothing) returns
  the original block from every engine.

Bit-identity under *arbitrary* probabilities is deliberately not asserted:
the engines draw the same distributions but consume the stream in different
orders (per-coin rectangles and whole-wave pick pre-draws vs sequential
scalar calls), so only the degenerate corner — where the flip contract says
no state is consumed at all — is stream-exact across engines.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bb.block import BasicBlock
from repro.bb.features import extract_features, features_present
from repro.data.synthesis import BlockSynthesizer
from repro.isa.validation import validate_block_instructions
from repro.perturb.algorithm import BlockPerturber
from repro.perturb.config import PerturbationConfig, ReplacementScheme

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Both Γ engines, oracle first (see module docstring).
ENGINES = ("reference", "soa")


@st.composite
def synthetic_blocks(draw):
    """Random valid blocks from the dataset synthesiser."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    size = draw(st.integers(min_value=2, max_value=8))
    source = draw(st.sampled_from(["clang", "openblas"]))
    return BlockSynthesizer(seed).generate(size, source=source)


@st.composite
def probability_configs(draw):
    """Arbitrary probability mixes for both replacement schemes."""
    return PerturbationConfig(
        p_instruction_retain=draw(st.floats(0.0, 1.0)),
        p_dependency_retain=draw(st.floats(0.0, 1.0)),
        p_delete=draw(st.floats(0.0, 1.0)),
        p_dependency_explicit_retain=draw(st.floats(0.0, 1.0)),
        replacement_scheme=draw(st.sampled_from(list(ReplacementScheme))),
    )


@st.composite
def degenerate_configs(draw):
    """Configs whose every coin is 0 or 1 — no flip consumes random state,
    so both engines must walk identical rng streams."""
    zero_one = st.sampled_from([0.0, 1.0])
    return PerturbationConfig(
        p_instruction_retain=draw(zero_one),
        p_dependency_retain=draw(zero_one),
        p_delete=draw(zero_one),
        p_dependency_explicit_retain=draw(zero_one),
        replacement_scheme=draw(st.sampled_from(list(ReplacementScheme))),
    )


@st.composite
def feature_subsets(draw, block):
    features = extract_features(block)
    size = draw(st.integers(min_value=0, max_value=min(3, len(features))))
    if size == 0:
        return []
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(features) - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    return [features[i] for i in indices]


@given(
    block=synthetic_blocks(),
    config=probability_configs(),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(**_SETTINGS)
def test_all_engines_always_produce_valid_blocks(block, config, seed):
    for engine in ENGINES:
        perturber = BlockPerturber(block, config, rng=seed, engine=engine)
        for perturbed in perturber.perturb_many(4):
            validate_block_instructions(perturbed.instructions)
            assert perturbed.num_instructions >= 1


@given(
    block=synthetic_blocks(),
    config=probability_configs(),
    seed=st.integers(min_value=0, max_value=1000),
    data=st.data(),
)
@settings(**_SETTINGS)
def test_all_engines_preserve_requested_features(block, config, seed, data):
    preserved = data.draw(feature_subsets(block))
    for engine in ENGINES:
        perturber = BlockPerturber(block, config, rng=seed, engine=engine)
        for perturbed in perturber.perturb_many(4, preserved):
            assert features_present(preserved, perturbed), (
                f"{engine} lost a preserved feature in:\n{perturbed.text}"
            )


@given(
    block=synthetic_blocks(),
    config=degenerate_configs(),
    seed=st.integers(min_value=0, max_value=1000),
    data=st.data(),
)
@settings(**_SETTINGS)
def test_engines_bit_identical_under_degenerate_probabilities(
    block, config, seed, data
):
    """With every coin fixed, both engines consume identical rng streams, so
    the perturbation sequences must match key for key."""
    preserved = data.draw(feature_subsets(block))
    sequences = {}
    for engine in ENGINES:
        perturber = BlockPerturber(block, config, rng=seed, engine=engine)
        sequences[engine] = [p.key() for p in perturber.perturb_many(6, preserved)]
    assert sequences["soa"] == sequences["reference"]


@given(block=synthetic_blocks(), seed=st.integers(min_value=0, max_value=1000))
@settings(**_SETTINGS)
def test_identity_config_returns_original_block(block, seed):
    identity = PerturbationConfig(
        p_instruction_retain=1.0, p_dependency_retain=1.0
    )
    for engine in ENGINES:
        perturber = BlockPerturber(block, identity, rng=seed, engine=engine)
        for perturbed in perturber.perturb_many(3):
            assert perturbed.key() == block.key()


class TestLockedMemoryRenameRegression:
    """The bug the generated-block suite surfaced, pinned explicitly.

    The block's two instructions share a memory location *and* the base
    register ``rbp`` carries a separate register dependency.  Preserving the
    memory WAR dependency must survive Γ breaking the register dependency:
    renaming ``rbp`` inside either locked memory operand would silently move
    the preserved address.
    """

    BLOCK = BasicBlock.from_text(
        "mov rbp, qword ptr [rbp + 64]\nmovups xmmword ptr [rbp + 64], xmm15"
    )

    def _memory_dependency_features(self):
        return [
            feature
            for feature in extract_features(self.BLOCK)
            if getattr(feature, "location_space", None) == "mem"
        ]

    def test_block_has_the_conflicting_dependencies(self):
        features = extract_features(self.BLOCK)
        assert self._memory_dependency_features()
        assert any(
            getattr(feature, "location_space", None) == "reg" for feature in features
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_preserved_memory_dependency_survives_register_breaking(self, engine):
        preserved = self._memory_dependency_features()
        config = PerturbationConfig()
        for seed in range(10):
            perturber = BlockPerturber(self.BLOCK, config, rng=seed, engine=engine)
            for perturbed in perturber.perturb_many(10, preserved):
                assert features_present(preserved, perturbed), perturbed.text
