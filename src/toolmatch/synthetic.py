"""Deterministic synthetic dataset generator.

Substitutes for a real image/text corpus at desk scale: every tool gets a
distinct integer attribute vector, and embeddings are produced by mixing that
vector through a seeded orthonormal-column matrix plus optional Gaussian
noise. The attribute signal is therefore exactly linearly recoverable at
sigma=0, which tests use as an analytic ceiling.

All randomness flows from one portable 64-bit seed through six child streams
with a fixed draw order (attributes, visual mixer, language mixer, visual
noise, language noise, trials), so identical specs give byte-identical
datasets on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from toolmatch.domain import (
    CANDIDATES_PER_TRIAL,
    NUM_ATTRIBUTES,
    EmbeddingSet,
    MatchingTrial,
    ScenarioRecord,
    ToolCatalog,
    ToolRecord,
    VALID_SPLITS,
    check_trial,
)
from toolmatch.formats import (
    save_catalog,
    write_embeddings,
    write_scenarios,
    write_trials,
)
from toolmatch.rng import SplitMix64

# Scenario-count presets: (train, test) scenarios per tool.
SCENARIO_PRESETS: dict[str, tuple[int, int]] = {
    "small": (10, 3),
    "medium": (90, 10),
    "large": (475, 25),
}

DEFAULT_IMAGES_PER_TOOL = (90, 10)
MAX_TRIAL_TOOLS = 100
NOISE_BLOCK = 1 << 14  # most noise variates drawn by one normals call, unless one tool needs more

RATING_GRID = tuple(range(1, 8))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic dataset; a pure function input."""

    n_tools: int
    images_per_tool: tuple[int, int] = DEFAULT_IMAGES_PER_TOOL
    scenarios_per_tool: tuple[int, int] = SCENARIO_PRESETS["medium"]
    d_v: int = 32
    d_l: int = 32
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "images_per_tool", tuple(int(c) for c in self.images_per_tool))
        object.__setattr__(self, "scenarios_per_tool", tuple(int(c) for c in self.scenarios_per_tool))
        if self.n_tools < CANDIDATES_PER_TRIAL:
            raise ValueError(
                f"need at least {CANDIDATES_PER_TRIAL} tools to build "
                f"{CANDIDATES_PER_TRIAL}-candidate trials, got {self.n_tools}"
            )
        for label, counts in (("images_per_tool", self.images_per_tool),
                              ("scenarios_per_tool", self.scenarios_per_tool)):
            if len(counts) != 2 or any(c < 1 for c in counts):
                raise ValueError(f"{label} must be a (train, test) pair of positive counts, got {counts}")
        for label, d in (("d_v", self.d_v), ("d_l", self.d_l)):
            if d < NUM_ATTRIBUTES:
                raise ValueError(
                    f"{label} must be at least {NUM_ATTRIBUTES} so the mixing matrix "
                    f"can have orthonormal columns, got {d}"
                )
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and non-negative, got {self.noise_sigma}")

    @classmethod
    def preset(cls, name: str, n_tools: int, **overrides) -> "SyntheticSpec":
        """Spec with one of the named scenario-count presets."""
        if name not in SCENARIO_PRESETS:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(SCENARIO_PRESETS)}")
        return cls(n_tools=n_tools, scenarios_per_tool=SCENARIO_PRESETS[name], **overrides)

    def to_dict(self) -> dict:
        return {
            "n_tools": self.n_tools,
            "images_per_tool": list(self.images_per_tool),
            "scenarios_per_tool": list(self.scenarios_per_tool),
            "d_v": self.d_v,
            "d_l": self.d_l,
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
        }


@dataclass(eq=False)
class SyntheticDataset:
    """Generated dataset plus the mixing matrices (kept for oracle tests)."""

    spec: SyntheticSpec
    catalog: ToolCatalog
    visual: EmbeddingSet
    scenario_embeddings: EmbeddingSet
    scenarios: list[ScenarioRecord]
    trials: list[MatchingTrial]
    mix_visual: np.ndarray  # (d_v, 13), orthonormal columns
    mix_language: np.ndarray  # (d_l, 13), orthonormal columns


def _draw_attributes(rng: SplitMix64, n_tools: int) -> list[np.ndarray]:
    """Distinct integer-grid attribute vectors, redrawn on collision."""
    seen: set[tuple[int, ...]] = set()
    vectors: list[np.ndarray] = []
    for _ in range(n_tools):
        while True:
            values = tuple(rng.randint(len(RATING_GRID)) + RATING_GRID[0] for _ in range(NUM_ATTRIBUTES))
            if values not in seen:
                seen.add(values)
                vectors.append(np.array(values, dtype=np.float64))
                break
    return vectors


def _orthonormal_columns(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    """Seeded Gaussian matrix orthonormalized column-by-column (modified Gram-Schmidt)."""
    m = rng.normals(rows * cols).reshape(rows, cols)
    q = np.empty_like(m)
    for j in range(cols):
        v = m[:, j].copy()
        for k in range(j):
            v -= (q[:, k] @ v) * q[:, k]
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise ValueError("degenerate mixing matrix draw; choose a different seed")
        q[:, j] = v / norm
    return q


def _emit_items(
    rng: SplitMix64,
    mixer: np.ndarray,
    attributes: list[np.ndarray],
    per_tool: tuple[int, int],
    sigma: float,
) -> EmbeddingSet:
    """Per-tool train-then-test items, ids tool-major.

    Each tool's rows start as its mixed attribute vector. Noise is then added
    over the rows in id order, one ``normals`` call per block of whole tools
    of at most ``NOISE_BLOCK`` variates (one tool if a tool alone is larger).
    ``normals(a)`` then ``normals(b)`` draws what ``normals(a + b)`` does, so
    every item gets the variates one draw per item would give it, while the
    block bounds the noise temporaries.
    """
    dim = mixer.shape[0]
    n_train, n_test = per_tool
    stride = n_train + n_test
    n_tools = len(attributes)
    vectors = np.empty((n_tools, stride, dim))
    for tool_id, attrs in enumerate(attributes):
        vectors[tool_id] = mixer @ attrs
    if sigma != 0.0:
        tools_per_block = max(NOISE_BLOCK // (stride * dim), 1)
        for start in range(0, n_tools, tools_per_block):
            rows = vectors[start:start + tools_per_block]
            rows += sigma * rng.normals(rows.size).reshape(rows.shape)
    splits = np.tile(np.array(["train"] * n_train + ["test"] * n_test), n_tools)
    return EmbeddingSet.from_arrays(
        np.arange(n_tools * stride), np.repeat(np.arange(n_tools), stride), splits,
        vectors.reshape(n_tools * stride, dim),
    )


def _test_items_by_tool(items: EmbeddingSet) -> dict[int, list[int]]:
    """Each tool's test item ids, in row order (id order for a generated set)."""
    test = items.split_codes == VALID_SPLITS.index("test")
    by_tool: dict[int, list[int]] = {}
    for item_id, tool_id in zip(items.item_ids[test].tolist(), items.tool_ids[test].tolist()):
        by_tool.setdefault(tool_id, []).append(item_id)
    return by_tool


def _build_trials(
    rng: SplitMix64,
    n_tools: int,
    visual: EmbeddingSet,
    scenario_embeddings: EmbeddingSet,
) -> list[MatchingTrial]:
    """One trial per tool for the first min(100, n_tools) tools, test items only."""
    by_tool_visual = _test_items_by_tool(visual)
    by_tool_scenario = _test_items_by_tool(scenario_embeddings)

    tool_ids = list(range(n_tools))
    trials: list[MatchingTrial] = []
    for trial_id, tool_id in enumerate(tool_ids[:MAX_TRIAL_TOOLS]):
        scen_items = by_tool_scenario[tool_id]
        scenario_item = scen_items[rng.randint(len(scen_items))]
        own_items = by_tool_visual[tool_id]
        target = own_items[rng.randint(len(own_items))]
        others = [t for t in tool_ids if t != tool_id]
        distractor_tools = rng.sample(others, CANDIDATES_PER_TRIAL - 1)
        candidates = [target]
        for d_tool in distractor_tools:
            pool = by_tool_visual[d_tool]
            candidates.append(pool[rng.randint(len(pool))])
        rng.shuffle(candidates)
        trials.append(
            MatchingTrial(
                trial_id=trial_id,
                scenario_item_id=scenario_item,
                candidate_item_ids=tuple(candidates),
                target_position=candidates.index(target),
            )
        )
    return trials


def generate(spec: SyntheticSpec) -> SyntheticDataset:
    """Generate the full dataset, a pure function of the given SyntheticSpec."""
    master = SplitMix64(spec.seed)
    (seed_attrs, seed_mix_v, seed_mix_l,
     seed_noise_v, seed_noise_l, seed_trials) = master.child_seeds(6)

    attributes = _draw_attributes(SplitMix64(seed_attrs), spec.n_tools)
    catalog = ToolCatalog(
        ToolRecord(tool_id=i, tool_name=f"tool_{i:03d}", attributes=a)
        for i, a in enumerate(attributes)
    )
    mix_v = _orthonormal_columns(SplitMix64(seed_mix_v), spec.d_v, NUM_ATTRIBUTES)
    mix_l = _orthonormal_columns(SplitMix64(seed_mix_l), spec.d_l, NUM_ATTRIBUTES)

    visual = _emit_items(
        SplitMix64(seed_noise_v), mix_v, attributes, spec.images_per_tool, spec.noise_sigma
    )
    scenario_embeddings = _emit_items(
        SplitMix64(seed_noise_l), mix_l, attributes, spec.scenarios_per_tool, spec.noise_sigma
    )
    scenarios = [
        ScenarioRecord(
            scenario_id=item_id,
            tool_id=tool_id,
            text=f"synthetic scenario for tool {tool_id}",
            item_id=item_id,
        )
        for item_id, tool_id in zip(
            scenario_embeddings.item_ids.tolist(), scenario_embeddings.tool_ids.tolist()
        )
    ]

    trials = _build_trials(SplitMix64(seed_trials), spec.n_tools, visual, scenario_embeddings)
    for trial in trials:
        check_trial(trial, scenario_embeddings, visual)

    return SyntheticDataset(
        spec=spec,
        catalog=catalog,
        visual=visual,
        scenario_embeddings=scenario_embeddings,
        scenarios=scenarios,
        trials=trials,
        mix_visual=mix_v,
        mix_language=mix_l,
    )


DATASET_FILENAMES = {
    "catalog": "catalog.csv",
    "visual": "visual.femb",
    "visual_manifest": "visual_manifest.jsonl",
    "scenario_embeddings": "scenarios.femb",
    "scenario_manifest": "scenarios_manifest.jsonl",
    "scenarios": "scenarios.jsonl",
    "trials": "trials.jsonl",
}


def write_dataset(dataset: SyntheticDataset, out_dir) -> dict[str, Path]:
    """Write all dataset files into a directory; returns the path of each part."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in DATASET_FILENAMES.items()}
    save_catalog(dataset.catalog, paths["catalog"])
    write_embeddings(dataset.visual, paths["visual"], paths["visual_manifest"])
    write_embeddings(dataset.scenario_embeddings, paths["scenario_embeddings"], paths["scenario_manifest"])
    write_scenarios(dataset.scenarios, paths["scenarios"])
    write_trials(dataset.trials, paths["trials"])
    return paths
