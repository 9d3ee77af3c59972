"""Extension bench: the anisotropy claim behind Fig. 1 / Table VII.

The paper's central *motivation* for the dedicated [CLS] token is the
anisotropy problem: instance embeddings obtained by pooling
timestamp-level embeddings are "confined to a narrow cone in the embedding
space" (Section I).  The paper never measures this directly — this bench
does.  After pre-training, instance embeddings from each strategy are
scored with mean pairwise cosine (anisotropy) and effective rank.

Shape to reproduce: GAP-pooled embeddings are more anisotropic (higher
mean cosine, lower effective rank) than the dedicated [CLS] embeddings.
"""

import numpy as np

from repro.core import PretrainConfig, run_pretrain
from repro.core.pooling import pool_instance
from repro.evaluation import anisotropy, effective_rank
from repro.experiments import (
    ResultTable,
    prepare_classification_data,
    timedrl_classification_config,
)
from repro import nn

from conftest import run_once, shape_assert

DATASET = "HAR"


def _embeddings_by_strategy(preset):
    data = prepare_classification_data(DATASET, preset, seed=0)
    config = timedrl_classification_config(DATASET, preset, seed=0)
    model = run_pretrain(config, data.x_train, PretrainConfig(
        epochs=preset.classify_pretrain_epochs, batch_size=preset.batch_size,
        max_batches_per_epoch=preset.max_batches, seed=0)).model
    x = data.x_test[:256]
    x_patched = model.encoder.prepare_input(x)
    with nn.no_grad():
        z = model.encoder(x_patched)
        z_i, z_t = model.encoder.split(z)
        return {
            method: pool_instance(z_i, z_t, method).data
            for method in ("cls", "gap", "last")
        }


def test_ext_anisotropy_of_pooling_strategies(benchmark, preset, save_table):
    embeddings = run_once(benchmark, lambda: _embeddings_by_strategy(preset))

    table = ResultTable(f"Extension: embedding-space geometry on {DATASET}",
                        columns=["anisotropy", "effective_rank"])
    for method, vectors in embeddings.items():
        table.add(method, "anisotropy", anisotropy(vectors))
        table.add(method, "effective_rank", effective_rank(vectors))
    save_table(table, "ext_anisotropy")

    for method in embeddings:
        assert -1.0 <= table.get(method, "anisotropy") <= 1.0
        assert table.get(method, "effective_rank") >= 1.0

    cls_cone = table.get("cls", "anisotropy")
    gap_cone = table.get("gap", "anisotropy")
    print(f"\nanisotropy: cls={cls_cone:.3f} gap={gap_cone:.3f}")
    # The paper's narrative: pooling-based instance embeddings live in a
    # narrower cone than the disentangled [CLS] embeddings.
    shape_assert(preset, cls_cone <= gap_cone + 0.05,
                 "[CLS] embeddings are markedly more anisotropic than GAP")
