"""The benchmark's workloads: registry variants run through `run_experiment`.

Each variant is a registry config used unchanged except for `base_seed`
(the benchmark seed), `num_seeds` and `record_wall_time=False`, so the seed
CSVs are byte-identical for a given seed. Two variants built from the fig3
blobs config swap only the loss kind, so that every loss family is covered.
"""

from __future__ import annotations

from dataclasses import dataclass

# seeds per variant: at least two, so that seed-level stacking or a pool can
# show up in the end-to-end numbers
NUM_SEEDS = 2


@dataclass(frozen=True)
class Variant:
    experiment: str                 # registry experiment key
    variant: str                    # variant name within it
    overrides: tuple = ()           # extra (dotted key, value) overrides


@dataclass(frozen=True)
class Workload:
    why: str
    variants: tuple[Variant, ...]

    def configs(self, harness, seed: int) -> list:
        """Validated configs for one round, built from a freshly imported
        `centerlab.harness` module."""
        out = []
        for v in self.variants:
            cfg = dict(harness.named_experiment(v.experiment))[v.variant]
            out.append(harness.apply_overrides(cfg, {
                **dict(v.overrides), "base_seed": seed,
                "num_seeds": NUM_SEEDS, "record_wall_time": False}))
        return out


def _loss_swap(kind: str) -> Variant:
    return Variant("fig3-simple-vs-simsiam", "simple-blobs",
                   (("name", f"{kind}-blobs"), ("loss.kind", kind)))


WORKLOADS = {
    # The s21 shifted variants run the same code on the same shapes as the
    # centered ones. Leaving them out halves a round, which doubles the rounds
    # in a run and so the samples in each per-segment median.
    "collapse-mini": Workload(
        why="s21 mini-batch collapse: many 50-row graphs make it interpreter-bound "
            "(backward, pair sampling); one class, so kNN never runs",
        variants=(Variant("s21-collapse-grid", "mini-centered"),)),
    "collapse-full": Workload(
        why="s21 full-batch collapse: the same modules with 20x the rows per call, "
            "1/20 of the calls and a diagnostics tick plus CSV row per step",
        variants=(Variant("s21-collapse-grid", "full-centered"),)),
    "objective-catalog": Workload(
        why="one variant per loss kind on 2-D class data: the only workload with kNN, "
            "loss bodies, Sinkhorn, EMA teachers and negative sampling",
        variants=(Variant("fig3-simple-vs-simsiam", "simple-blobs"),
                  Variant("fig3-simple-vs-simsiam", "simsiam-blobs"),
                  Variant("fig7-byol-momentum", "momentum-0.99"),
                  Variant("s22-dino-centering", "centering"),
                  Variant("bt-no-decor", "full"),
                  Variant("swav-fixed-protos", "learnable"),
                  _loss_swap("triplet"),
                  _loss_swap("infonce"))),
}
